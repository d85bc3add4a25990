type config = {
  retries : int;
  base_delay_ms : float;
  seed : int;
  sleep : float -> unit;
  connect_timeout_ms : float option;
  deadline_ms : float option;
}

let default_config =
  {
    retries = 4;
    base_delay_ms = 25.0;
    seed = 0;
    sleep = Unix.sleepf;
    connect_timeout_ms = None;
    deadline_ms = None;
  }

(* One attempt: connect, send, read one response line.  [Error
   (transient, msg)] tags whether the failure is worth retrying.
   [deadline] (absolute) bounds the whole exchange: connect, write and
   read each check the remaining budget. *)
let attempt ?(config = default_config) ?deadline addr line =
  let name = Addr.to_string addr in
  let connect_timeout_ms =
    (* The tighter of the configured connect timeout and what is left
       of the request deadline. *)
    match deadline with
    | None -> config.connect_timeout_ms
    | Some d ->
      let left_ms = (d -. Unix.gettimeofday ()) *. 1000.0 in
      let left_ms = Float.max 1.0 left_ms in
      Some
        (match config.connect_timeout_ms with
        | None -> left_ms
        | Some t -> Float.min t left_ms)
  in
  match Addr.connect ?timeout_ms:connect_timeout_ms addr with
  | exception Unix.Unix_error (e, _, _) ->
    let transient =
      match e with Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT -> true | _ -> false
    in
    Error (transient, Printf.sprintf "%s: %s" name (Unix.error_message e))
  | fd -> (
    let close () = try Unix.close fd with Unix.Unix_error _ -> () in
    match
      Wire.write_line ?deadline fd line;
      Wire.read_line ?deadline fd
    with
    | exception Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
      close ();
      Error (true, Printf.sprintf "%s: %s" name (Unix.error_message e))
    | exception Unix.Unix_error (Unix.ETIMEDOUT, "write", _) ->
      close ();
      Error (true, Printf.sprintf "%s: %s" name Wire.deadline_error)
    | exception Unix.Unix_error (e, _, _) ->
      close ();
      Error (false, Printf.sprintf "%s: %s" name (Unix.error_message e))
    | Error msg ->
      close ();
      if msg = Wire.deadline_error then
        (* Transient in principle, but the budget is gone; request_to
           stops retrying once the deadline passes. *)
        Error (true, Printf.sprintf "%s: %s" name msg)
      else
        (* EOF before a whole response: the daemon died between accept
           and reply, a drain raced the connect, or the reply was cut
           off in transit — transient. *)
        Error (msg = "connection closed" || msg = "connection closed mid-line", msg)
    | Ok response ->
      close ();
      if Protocol.field "error" response = Some "queue full" then Error (true, "queue full")
      else if Protocol.field "code" response = Some "overloaded" then
        Error (true, "overloaded")
      else Ok response)

let request_to ?(config = default_config) addrs line =
  let n = List.length addrs in
  if n = 0 then invalid_arg "Client.request_to: empty address list";
  let addr k = List.nth addrs (k mod n) in
  let rng = Support.Rng.create config.seed in
  let deadline =
    match config.deadline_ms with
    | None -> None
    | Some ms -> Some (Unix.gettimeofday () +. (ms /. 1000.0))
  in
  let expired () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
  in
  let rec go k =
    match attempt ~config ?deadline (addr k) line with
    | Ok response -> Ok response
    | Error (transient, msg) ->
      if (not transient) || k >= max 0 config.retries then Error msg
      else begin
        let backoff = config.base_delay_ms *. (2.0 ** float_of_int k) in
        let jitter = 0.5 +. Support.Rng.float rng in
        let pause = backoff *. jitter /. 1000.0 in
        (* Never sleep past the request deadline: if the next attempt
           could not even start in budget, surface the last transient
           error with a deadline tag instead. *)
        let overruns =
          match deadline with
          | None -> false
          | Some d -> Unix.gettimeofday () +. pause >= d
        in
        if expired () || overruns then
          Error (Printf.sprintf "%s (%s)" Wire.deadline_error msg)
        else begin
          config.sleep pause;
          go (k + 1)
        end
      end
  in
  go 0

let request ?config ~socket_path line = request_to ?config [ Addr.Unix_path socket_path ] line
