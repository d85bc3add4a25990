let deadline_error = "deadline exceeded"

let chunk_size = 4096

(* Wait until [fd] is readable, or the absolute [deadline] passes.
   [true] = readable; [false] = deadline exceeded.  EINTR resumes with
   the remaining time. *)
let wait_readable fd deadline =
  match deadline with
  | None -> true
  | Some d ->
    let rec go () =
      let left = d -. Unix.gettimeofday () in
      if left <= 0.0 then false
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

let wait_writable fd deadline =
  match deadline with
  | None -> true
  | Some d ->
    let rec go () =
      let left = d -. Unix.gettimeofday () in
      if left <= 0.0 then false
      else
        match Unix.select [] [ fd ] [] left with
        | _, [], _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

(* Consume exactly [want] bytes that a MSG_PEEK just reported present.
   A single [read] may still return short (signals, socket buffers),
   so loop; the bytes cannot vanish — we are the only reader. *)
let drain_exact fd buf want =
  let got = ref 0 in
  while !got < want do
    match Unix.read fd buf !got (want - !got) with
    | 0 -> raise (Unix.Unix_error (Unix.ECONNRESET, "read", "peer vanished mid-line"))
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Position of '\n' within the first [n] bytes, if any. *)
let newline_within buf n =
  let rec go i = if i >= n then None else if Bytes.get buf i = '\n' then Some i else go (i + 1) in
  go 0

(* Sockets take the chunked MSG_PEEK path: peek a chunk, then consume
   exactly up to (and including) the newline, so nothing past the
   frame is ever read — and a 64 KiB certificate body costs ~16
   syscall pairs instead of 64k one-byte reads.  Non-socket
   descriptors (pipes in tests) fall back to byte-at-a-time reads,
   which never over-read by construction. *)
let read_line ?(max_bytes = 65536) ?deadline fd =
  let acc = Buffer.create 128 in
  let chunk = Bytes.create chunk_size in
  let finish_eof () =
    if Buffer.length acc = 0 then Error "connection closed" else Error "connection closed mid-line"
  in
  let byte = Bytes.create 1 in
  let rec slow () =
    if Buffer.length acc > max_bytes then Error "request too long"
    else if not (wait_readable fd deadline) then Error deadline_error
    else
      match Unix.read fd byte 0 1 with
      | 0 -> finish_eof ()
      | _ ->
        if Bytes.get byte 0 = '\n' then Ok (Buffer.contents acc)
        else begin
          Buffer.add_char acc (Bytes.get byte 0);
          slow ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> slow ()
  in
  let rec fast () =
    if Buffer.length acc > max_bytes then Error "request too long"
    else if not (wait_readable fd deadline) then Error deadline_error
    else
      match Unix.recv fd chunk 0 chunk_size [ Unix.MSG_PEEK ] with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fast ()
      | exception Unix.Unix_error ((Unix.ENOTSOCK | Unix.EINVAL | Unix.EOPNOTSUPP), _, _) ->
        slow ()
      | 0 -> finish_eof ()
      | n -> (
        match newline_within chunk n with
        | Some i ->
          drain_exact fd chunk (i + 1);
          Buffer.add_subbytes acc chunk 0 i;
          if Buffer.length acc > max_bytes then Error "request too long"
          else Ok (Buffer.contents acc)
        | None ->
          drain_exact fd chunk n;
          Buffer.add_subbytes acc chunk 0 n;
          fast ())
  in
  fast ()

let write_all ?deadline fd s =
  let data = Bytes.unsafe_of_string s in
  let len = Bytes.length data in
  match deadline with
  | None ->
    let rec go off =
      if off < len then
        match Unix.write fd data off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
  | Some _ ->
    (* A blocking stream-socket write parks until the WHOLE buffer is
       queued, so select's 1-byte writability is no deadline: the fd
       must be non-blocking for the write itself to stay bounded. *)
    Unix.set_nonblock fd;
    Fun.protect
      ~finally:(fun () -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
      (fun () ->
        let rec go off =
          if off < len then
            if not (wait_writable fd deadline) then
              raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", deadline_error))
            else
              match Unix.write fd data off (len - off) with
              | n -> go (off + n)
              | exception
                  Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                go off
        in
        go 0)

let write_line ?deadline fd s = write_all ?deadline fd (s ^ "\n")
