module Cec = Cec_core.Cec
module Certify = Cec_core.Certify

(* Version 2 introduced binary certificate bodies and the explicit
   ["trace"/"bin"] word on the verdict line; version 3 adds hinted
   binary bodies ("bin3": pivot hints + shard table, checkable without
   search and in parallel).  Version-1 objects (bare ["equivalent"] +
   ASCII trace) and version-2 objects are still readable; the index
   format is versioned separately below and an old index is simply
   rebuilt. *)
let format_version = 3

type cert_format = Trace | Bin | Bin3

type entry = {
  mutable bytes : int;
  mutable stamp : int;
}

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
  write_failures : int;
}

type t = {
  dir : string;
  objects : string;
  capacity : int option;
  paranoid : bool;
  cert_format : cert_format;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable total_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable store_count : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable write_failures : int;
  lock : Mutex.t;
}

(* --- filesystem helpers --- *)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Atomic publication: write to a fresh temporary in the same directory
   (same filesystem, so the rename cannot degrade to copy+delete) and
   rename over the final name. *)
let write_atomic ~path data =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".tmp-" ".part" in
  (try Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* --- index persistence --- *)

let index_path t = Filename.concat t.dir "index"
let object_path t hex = Filename.concat t.objects hex

let save_index t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "cecproof-index %d\n" format_version;
  Hashtbl.iter (fun hex (e : entry) -> Printf.bprintf buf "%s %d %d\n" hex e.bytes e.stamp) t.table;
  write_atomic ~path:(index_path t) (Buffer.contents buf)

(* Restore the entry table from the index file; falls back to scanning
   objects/ when the index is absent, unparsable or version-mismatched
   (rebuilt entries all get stamp 0: ancient, evicted first). *)
let load_entries t =
  let from_index () =
    match read_file (index_path t) with
    | exception Sys_error _ -> None
    | text -> (
      match String.split_on_char '\n' text with
      | header :: lines when header = Printf.sprintf "cecproof-index %d" format_version -> (
        let parse line =
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ hex; bytes; stamp ] -> (
            match (Key.of_hex hex, int_of_string_opt bytes, int_of_string_opt stamp) with
            | Some _, Some bytes, Some stamp when bytes >= 0 && stamp >= 0 ->
              Some (hex, bytes, stamp)
            | _ -> None)
          | _ -> None
        in
        let rec collect acc = function
          | [] -> Some (List.rev acc)
          | "" :: rest -> collect acc rest
          | line :: rest -> (
            match parse line with
            | Some e -> collect (e :: acc) rest
            | None -> None (* any bad line: distrust the whole index *))
        in
        match collect [] lines with
        | Some entries ->
          Some
            (List.filter (fun (hex, _, _) -> Sys.file_exists (object_path t hex)) entries)
        | None -> None)
      | _ -> None)
  in
  let from_scan () =
    match Sys.readdir t.objects with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             match Key.of_hex name with
             | None -> None
             | Some _ -> (
               match (Unix.stat (object_path t name)).Unix.st_size with
               | size -> Some (name, size, 0)
               | exception Unix.Unix_error _ -> None))
  in
  let entries = match from_index () with Some e -> e | None -> from_scan () in
  List.iter
    (fun (hex, bytes, stamp) ->
      Hashtbl.replace t.table hex { bytes; stamp };
      t.total_bytes <- t.total_bytes + bytes;
      if stamp > t.clock then t.clock <- stamp)
    entries

let dir t = t.dir
let paranoid t = t.paranoid
let entry_path t key = object_path t (Key.to_hex key)
let with_lock t f = Mutex.protect t.lock f
let mem t key = with_lock t (fun () -> Hashtbl.mem t.table (Key.to_hex key))

let touch t (e : entry) =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

(* --- certificate encoding --- *)

let header = Printf.sprintf "cecproof-cert %d" format_version
let legacy_headers = [ "cecproof-cert 1"; "cecproof-cert 2" ]
let known_header h = h = header || List.mem h legacy_headers

let encode ~format verdict =
  match verdict with
  | Cec.Undecided -> None
  | Cec.Inequivalent cex ->
    let bits = String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0') in
    Some (Printf.sprintf "%s\ninequivalent %s\n" header bits)
  | Cec.Equivalent cert -> (
    match format with
    | Bin ->
      (* [Binfmt.encode] walks the reachable cone itself, so no
         separate trimming pass is needed. *)
      Some
        (Printf.sprintf "%s\nequivalent bin\n%s" header
           (Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root))
    | Bin3 ->
      (* Hinted body: pivot hints plus a shard table on the prover's
         section boundaries, so reads re-validate without search and
         in parallel. *)
      Some
        (Printf.sprintf "%s\nequivalent bin3\n%s" header
           (Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
              ~root:cert.Cec.root))
    | Trace ->
      let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
      Some
        (Printf.sprintf "%s\nequivalent trace\n%s" header
           (Proof.Export.trace_to_string trimmed ~root)))

(* Split [data] into (first line, remainder after its newline). *)
let split_line data =
  match String.index_opt data '\n' with
  | None -> (data, "")
  | Some i -> (String.sub data 0 i, String.sub data (i + 1) (String.length data - i - 1))

(* Simulated bit-rot ([store.corrupt]): flip one mid-file byte before
   parsing, exercising the validation/drop/miss path on reads. *)
let corrupt_bytes data =
  if String.length data = 0 then data
  else begin
    let b = Bytes.of_string data in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    Bytes.unsafe_to_string b
  end

(* One full pass of the binary checker.  With [leaf_ok] every leaf
   must be a clause of this pair's miter CNF; without it the pass is
   structural (every chain re-resolves, the root is empty). *)
let check_body ?leaf_ok body =
  match Proof.Hint_check.check ?leaf_ok body with
  | Ok _ -> Ok ()
  | Error e -> Error (Format.asprintf "%a" Proof.Hint_check.pp_error e)

let parse_trace body =
  match Proof.Export.trace_of_string body with
  | exception (Failure msg | Invalid_argument msg) -> Error msg
  | parsed -> Ok parsed

(* The structural check of a parsed trace: every chain re-resolves and
   the root is the empty clause. *)
let check_trace (proof, root) =
  match Proof.Checker.check proof ~root () with
  | Ok _ -> Ok ()
  | Error e -> Error (Format.asprintf "%a" Proof.Checker.pp_error e)

(* A stored verdict that passed its check.  An equivalence carries the
   certificate rebuild as a closure, so a verdict-only read skips the
   second resolution pass of [Binfmt.decode]. *)
type loaded =
  | Refuted of bool array
  | Proved of (unit -> (Cec.certificate, string) result)

let load_verdict t path ~golden ~revised =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | data -> (
    let data = if Fault.fire "store.corrupt" then corrupt_bytes data else data in
    let first, rest = split_line data in
    if not (known_header first) then
      Error (Printf.sprintf "version/header mismatch: %S (want %S)" first header)
    else
      let verdict_line, body = split_line rest in
      (* The pair's miter, built at most once per load and only when a
         check or a certificate needs it.  Leaves are checked against
         it with [Cnf.Tseitin.miter_mem], so its CNF is never built. *)
      let miter = lazy (Aig.Miter.build golden revised) in
      let with_miter f =
        match Lazy.force miter with
        | exception Invalid_argument msg -> Error msg
        | miter -> f miter
      in
      (* Version-1 objects say bare "equivalent" and always carry an
         ASCII trace; later versions name their body format. *)
      let equivalent_trace () =
        Result.bind (parse_trace body) (fun (proof, root) ->
            let certificate () =
              with_miter (fun miter -> Ok { Cec.proof; root; miter; boundaries = [||] })
            in
            let checked =
              if not t.paranoid then check_trace (proof, root)
              else
                Result.bind (certificate ()) (fun cert ->
                    match Certify.validate cert with
                    | Ok _ -> Ok ()
                    | Error e -> Error (Format.asprintf "%a" Certify.pp_error e))
            in
            Result.map (fun () -> Proved certificate) checked)
      in
      (* The decoded proof's node ids equal stream positions, so the
         shard table maps straight back to section boundaries — a
         reloaded certificate re-encodes with the same shards. *)
      let boundaries_of_body () =
        match Proof.Binfmt.reader body with
        | exception Proof.Binfmt.Corrupt _ -> [||]
        | r ->
          let n = Proof.Binfmt.declared_nodes r in
          Proof.Binfmt.shards r |> Array.to_list
          |> List.filter_map (fun sh ->
                 if sh.Proof.Binfmt.end_pos < n then Some (sh.Proof.Binfmt.end_pos - 1)
                 else None)
          |> Array.of_list
      in
      let equivalent_bin () =
        let checked =
          if t.paranoid then
            with_miter (fun miter -> check_body ~leaf_ok:(Cnf.Tseitin.miter_mem miter) body)
          else check_body body
        in
        Result.map
          (fun () ->
            Proved
              (fun () ->
                with_miter (fun miter ->
                    match Proof.Binfmt.decode body with
                    | exception Failure msg -> Error msg
                    | proof, root ->
                      Ok { Cec.proof; root; miter; boundaries = boundaries_of_body () })))
          checked
      in
      match String.split_on_char ' ' verdict_line with
      | [ "equivalent" ] | [ "equivalent"; "trace" ] -> equivalent_trace ()
      | [ "equivalent"; ("bin" | "bin3") ] -> equivalent_bin ()
      | [ "inequivalent"; bits ] ->
        if String.exists (fun c -> c <> '0' && c <> '1') bits then
          Error "malformed counterexample bits"
        else if String.length bits <> Aig.num_inputs golden then
          Error "counterexample arity mismatch"
        else begin
          let cex = Array.init (String.length bits) (fun i -> bits.[i] = '1') in
          if t.paranoid then
            with_miter (fun miter ->
                if (Aig.eval miter cex).(0) then Ok (Refuted cex)
                else Error "stored counterexample does not distinguish the pair")
          else Ok (Refuted cex)
        end
      | _ -> Error (Printf.sprintf "malformed verdict line %S" verdict_line))

let drop_entry t hex (e : entry) =
  Hashtbl.remove t.table hex;
  t.total_bytes <- t.total_bytes - e.bytes;
  try Sys.remove (object_path t hex) with Sys_error _ -> ()

(* --- fsck --- *)

type fsck_report = {
  scanned : int;
  valid : int;
  orphan_tmp : int;
  quarantined : int;
  adopted : int;
  dropped : int;
}

let quarantine_dir t = Filename.concat t.dir "quarantine"

(* Move a suspect file out of the store.  Quarantining must never make
   recovery worse: if the rename itself fails the file is deleted, so
   a repeated fsck always converges to a consistent store. *)
let quarantine t path =
  let dst_dir = quarantine_dir t in
  mkdir_p dst_dir;
  let base = Filename.basename path in
  let rec fresh i =
    let cand =
      if i = 0 then Filename.concat dst_dir base
      else Filename.concat dst_dir (Printf.sprintf "%s.%d" base i)
    in
    if Sys.file_exists cand then fresh (i + 1) else cand
  in
  try Sys.rename path (fresh 0) with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ())

let is_tmp_name name =
  String.length name > 5 && String.sub name 0 5 = ".tmp-" && Filename.check_suffix name ".part"

(* Structural validation of one object's bytes — no pair in hand, so
   this checks everything checkable without a miter CNF: header and
   verdict-line shape, and for every proof body a full pass of its
   checker (every chain re-resolves, root empty) minus the leaf-origin
   check that needs the formula. *)
let validate_object data =
  let first, rest = split_line data in
  if not (known_header first) then Error (Printf.sprintf "header mismatch: %S" first)
  else
    let verdict_line, body = split_line rest in
    match String.split_on_char ' ' verdict_line with
    | [ "equivalent" ] | [ "equivalent"; "trace" ] -> Result.bind (parse_trace body) check_trace
    | [ "equivalent"; ("bin" | "bin3") ] -> check_body body
    | [ "inequivalent"; bits ] ->
      if bits <> "" && String.for_all (fun c -> c = '0' || c = '1') bits then Ok ()
      else Error "malformed counterexample bits"
    | _ -> Error (Printf.sprintf "malformed verdict line %S" verdict_line)

let fsck_locked t =
  let orphan_tmp = ref 0
  and quarantined = ref 0
  and adopted = ref 0
  and dropped = ref 0
  and valid = ref 0
  and scanned = ref 0 in
  let sweep_tmp dirpath =
    match Sys.readdir dirpath with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun name ->
          if is_tmp_name name then begin
            quarantine t (Filename.concat dirpath name);
            incr orphan_tmp;
            incr quarantined
          end)
        names
  in
  sweep_tmp t.dir;
  sweep_tmp t.objects;
  (match Sys.readdir t.objects with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        let path = Filename.concat t.objects name in
        if not (try Sys.is_directory path with Sys_error _ -> true) then begin
          incr scanned;
          let entry = Hashtbl.find_opt t.table name in
          let condemn () =
            (match entry with
            | Some e ->
              Hashtbl.remove t.table name;
              t.total_bytes <- t.total_bytes - e.bytes
            | None -> ());
            quarantine t path;
            incr quarantined
          in
          if Key.of_hex name = None then condemn ()
          else
            match read_file path with
            | exception Sys_error _ -> condemn ()
            | data -> (
              match validate_object data with
              | Error _ -> condemn ()
              | Ok () -> (
                incr valid;
                let bytes = String.length data in
                match entry with
                | Some e ->
                  if e.bytes <> bytes then begin
                    t.total_bytes <- t.total_bytes - e.bytes + bytes;
                    e.bytes <- bytes
                  end
                | None ->
                  (* A valid object the index forgot (crash between the
                     object rename and the index write): re-adopt it so
                     warm hits keep serving after recovery. *)
                  Hashtbl.replace t.table name { bytes; stamp = 0 };
                  t.total_bytes <- t.total_bytes + bytes;
                  incr adopted))
        end)
      names);
  let missing =
    Hashtbl.fold
      (fun hex (e : entry) acc ->
        if Sys.file_exists (object_path t hex) then acc else (hex, e) :: acc)
      t.table []
  in
  List.iter
    (fun (hex, (e : entry)) ->
      Hashtbl.remove t.table hex;
      t.total_bytes <- t.total_bytes - e.bytes;
      incr dropped)
    missing;
  save_index t;
  {
    scanned = !scanned;
    valid = !valid;
    orphan_tmp = !orphan_tmp;
    quarantined = !quarantined;
    adopted = !adopted;
    dropped = !dropped;
  }

let fsck t = with_lock t (fun () -> fsck_locked t)

let pp_fsck fmt r =
  Format.fprintf fmt "scanned=%d valid=%d orphan_tmp=%d quarantined=%d adopted=%d dropped=%d"
    r.scanned r.valid r.orphan_tmp r.quarantined r.adopted r.dropped

let create ?capacity_bytes ?(paranoid = true) ?(cert_format = Bin3) ?(startup_fsck = true) ~dir () =
  let objects = Filename.concat dir "objects" in
  mkdir_p objects;
  let t =
    {
      dir;
      objects;
      capacity = capacity_bytes;
      paranoid;
      cert_format;
      table = Hashtbl.create 64;
      clock = 0;
      total_bytes = 0;
      hits = 0;
      misses = 0;
      store_count = 0;
      evictions = 0;
      corrupt = 0;
      write_failures = 0;
      lock = Mutex.create ();
    }
  in
  load_entries t;
  if startup_fsck then ignore (fsck_locked t);
  t

type hit = Equivalent | Inequivalent of bool array

(* Shared by both lookups: [use] turns a checked object into the
   caller's answer, and anything it rejects counts as corrupt too.  A
   hit moves the entry's LRU stamp in memory only; the next index
   write (store, drop, fsck, flush) persists it. *)
let find_locked t key ~golden ~revised ~use =
  let hex = Key.to_hex key in
  match Hashtbl.find_opt t.table hex with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some e -> (
    match Result.bind (load_verdict t (object_path t hex) ~golden ~revised) use with
    | Ok answer ->
      t.hits <- t.hits + 1;
      touch t e;
      Some answer
    | Error _ ->
      t.corrupt <- t.corrupt + 1;
      t.misses <- t.misses + 1;
      drop_entry t hex e;
      save_index t;
      None)

let lookup t key ~golden ~revised =
  with_lock t (fun () ->
      find_locked t key ~golden ~revised ~use:(function
        | Refuted cex -> Ok (Inequivalent cex)
        | Proved _ -> Ok Equivalent))

let find t key ~golden ~revised =
  with_lock t (fun () ->
      find_locked t key ~golden ~revised ~use:(function
        | Refuted cex -> Ok (Cec.Inequivalent cex)
        | Proved certificate -> Result.map (fun c -> Cec.Equivalent c) (certificate ())))

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun hex (e : entry) acc ->
        match acc with
        | Some (_, (best : entry)) when best.stamp <= e.stamp -> acc
        | _ -> Some (hex, e))
      t.table None
  in
  match victim with
  | None -> false
  | Some (hex, e) ->
    drop_entry t hex e;
    t.evictions <- t.evictions + 1;
    true

let over_capacity t =
  match t.capacity with Some cap -> t.total_bytes > cap | None -> false

(* Object publication with injection points.  [store.write] simulates
   an I/O error / crash before any data lands (the orphaned tmp file
   stays behind for fsck); [store.torn_write] simulates a crash after
   publishing only a truncated prefix — the worst case tmp+rename is
   supposed to prevent, forced here so fsck provably cleans it up. *)
let write_object_atomic t hex data =
  let path = object_path t hex in
  let tmp = Filename.temp_file ~temp_dir:t.objects ".tmp-" ".part" in
  if Fault.fire "store.write" then raise (Fault.Injected "store.write");
  if Fault.fire "store.torn_write" then begin
    let cut = max 1 (String.length data / 3) in
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (String.sub data 0 cut));
    Sys.rename tmp path;
    raise (Fault.Injected "store.torn_write")
  end;
  (try Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let store t key verdict =
  match encode ~format:t.cert_format verdict with
  | None -> ()
  | Some data ->
    with_lock t (fun () ->
        let hex = Key.to_hex key in
        match write_object_atomic t hex data with
        | exception (Fault.Injected _ | Sys_error _) ->
          (* A verdict that cannot be cached is still a verdict: count
             the failure and serve the caller uncached. *)
          t.write_failures <- t.write_failures + 1
        | () ->
        let bytes = String.length data in
        (match Hashtbl.find_opt t.table hex with
        | Some e ->
          t.total_bytes <- t.total_bytes - e.bytes + bytes;
          e.bytes <- bytes;
          touch t e
        | None ->
          let e = { bytes; stamp = 0 } in
          touch t e;
          Hashtbl.replace t.table hex e;
          t.total_bytes <- t.total_bytes + bytes);
        t.store_count <- t.store_count + 1;
        (* LRU eviction pass: the just-written entry holds the newest
           stamp, so it survives unless it is the only one left. *)
        while over_capacity t && Hashtbl.length t.table > 1 && evict_lru t do
          ()
        done;
        save_index t)

let flush t = with_lock t (fun () -> save_index t)

let stats t =
  with_lock t (fun () ->
      {
        entries = Hashtbl.length t.table;
        bytes = t.total_bytes;
        hits = t.hits;
        misses = t.misses;
        stores = t.store_count;
        evictions = t.evictions;
        corrupt = t.corrupt;
        write_failures = t.write_failures;
      })

let fields s =
  Protocol.
    [
      ("store_entries", Int s.entries);
      ("store_bytes", Int s.bytes);
      ("store_stores", Int s.stores);
      ("store_evictions", Int s.evictions);
      ("store_corrupt", Int s.corrupt);
      ("store_write_failures", Int s.write_failures);
    ]

let pp_stats fmt s =
  Format.fprintf fmt
    "entries=%d bytes=%d hits=%d misses=%d stores=%d evictions=%d corrupt=%d write_failures=%d"
    s.entries s.bytes s.hits s.misses s.stores s.evictions s.corrupt s.write_failures
