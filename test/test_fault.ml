(* Fault injection and every recovery path it drives: the spec
   language and its deterministic firing, the service engine's
   supervision and graceful degradation, store crash recovery (orphan
   tmp files, torn writes, fsck quarantine and re-adoption),
   the EINTR-safe wire helpers, the retrying client, and the daemon's
   stale-socket probe and typed worker-crash errors. *)

module Cec = Cec_core.Cec
module Key = Service.Key
module Protocol = Service.Protocol
module Metrics = Service.Metrics
module Store = Service.Store
module Engine = Service.Engine
module Server = Service.Server
module Client = Service.Client
module Wire = Service.Wire
module Batch = Service.Batch

(* --- scratch directories (as in test_service) --- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let with_temp_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let spec_exn s =
  match Fault.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec %S did not parse: %s" s e

let small_pair () =
  let case = List.hd Circuits.Suite.small in
  (Key.normalize (case.Circuits.Suite.golden ()), Key.normalize (case.Circuits.Suite.revised ()))

(* --- the spec language --- *)

let test_spec_round_trip () =
  let s = "store.write:0.05,worker.crash:0.01@seed=42" in
  let spec = spec_exn s in
  (* to_string must itself parse, to the same rendering. *)
  Alcotest.(check string) "round-trip" (Fault.to_string spec)
    (Fault.to_string (spec_exn (Fault.to_string spec)));
  let bare = spec_exn "worker.crash:1" in
  Alcotest.(check string) "default seed round-trips" (Fault.to_string bare)
    (Fault.to_string (spec_exn (Fault.to_string bare)))

let test_spec_rejects_garbage () =
  let rejected s =
    match Fault.parse s with
    | Ok _ -> Alcotest.failf "spec %S should not parse" s
    | Error msg -> Alcotest.(check bool) (s ^ " has a message") true (String.length msg > 0)
  in
  List.iter rejected
    [
      ""; "nocolon"; "p:"; ":0.5"; "p:abc"; "p:2.0"; "p:-0.1"; "P:0.5"; "sp ace:0.5";
      "p:0.5@seed=x"; "p:0.5@frobnicate=1"; "p:0.5,"; ",p:0.5";
    ]

let test_fire_deterministic () =
  let draws () =
    Fault.with_spec (spec_exn "p:0.5@seed=7") (fun () ->
        List.init 200 (fun _ -> Fault.fire "p"))
  in
  let a = draws () and b = draws () in
  Alcotest.(check (list bool)) "same spec, same schedule" a b;
  Alcotest.(check bool) "some fire" true (List.mem true a);
  Alcotest.(check bool) "some do not" true (List.mem false a);
  let other =
    Fault.with_spec (spec_exn "p:0.5@seed=8") (fun () ->
        List.init 200 (fun _ -> Fault.fire "p"))
  in
  Alcotest.(check bool) "different seed, different schedule" false (a = other)

let test_disabled_is_inert () =
  Fault.disable ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  for _ = 1 to 100 do
    Alcotest.(check bool) "never fires" false (Fault.fire "store.write")
  done;
  Fault.inject "worker.crash" (* must not raise *)

let test_always_and_restore () =
  Fault.disable ();
  Fault.with_spec (Fault.always "p") (fun () ->
      Alcotest.(check bool) "active inside" true (Fault.active ());
      Alcotest.(check bool) "always fires" true (Fault.fire "p");
      Alcotest.(check bool) "unknown points stay quiet" false (Fault.fire "other");
      (try
         Fault.inject "p";
         Alcotest.fail "inject did not raise"
       with Fault.Injected point -> Alcotest.(check string) "payload" "p" point));
  Alcotest.(check bool) "restored to inactive" false (Fault.active ());
  (* with_spec restores even when the body raises, and re-installs an
     enclosing spec rather than clearing it. *)
  Fault.with_spec (Fault.always "outer") (fun () ->
      (try Fault.with_spec (Fault.always "inner") (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "outer back in force" true (Fault.fire "outer"));
  Fault.disable ()

let test_fired_injections_counted () =
  let reg = Obs.Registry.create () in
  Obs.with_ambient reg (fun () ->
      Fault.with_spec (Fault.always "p") (fun () ->
          for _ = 1 to 3 do
            ignore (Fault.fire "p")
          done));
  let count = try List.assoc "fault.injected.p" (Obs.Registry.counters reg) with Not_found -> 0 in
  Alcotest.(check int) "fault.injected.p" 3 count

(* --- engine supervision and degradation --- *)

let test_engine_propagates_degradation () =
  let golden, revised = small_pair () in
  let result =
    Fault.with_spec (Fault.always "worker.crash") (fun () ->
        Engine.solve Engine.default_config golden revised)
  in
  (match result.Engine.verdict with
  | Cec.Undecided -> ()
  | Cec.Equivalent _ | Cec.Inequivalent _ -> Alcotest.fail "degraded solve must stay Undecided");
  Alcotest.(check bool) "reason surfaced" true (result.Engine.degraded <> None);
  Alcotest.(check bool) "not a timeout" false result.Engine.timed_out

let test_engine_budget_fault_gives_up_cleanly () =
  (* Every round's solve is a fabricated budget blowout: the engine
     escalates through all its rounds and gives up honestly — an
     Undecided that is neither degraded nor a timeout. *)
  let golden, revised = small_pair () in
  let config = { Engine.default_config with Engine.max_rounds = 3 } in
  let result =
    Fault.with_spec (Fault.always "engine.budget") (fun () -> Engine.solve config golden revised)
  in
  (match result.Engine.verdict with
  | Cec.Undecided -> ()
  | Cec.Equivalent _ | Cec.Inequivalent _ -> Alcotest.fail "budget fault must leave Undecided");
  Alcotest.(check (option string)) "not degraded" None result.Engine.degraded;
  Alcotest.(check bool) "not a timeout" false result.Engine.timed_out;
  Alcotest.(check int) "every round ran" 3 result.Engine.rounds

(* --- store crash recovery --- *)

let solved_pair_and_key () =
  let golden, revised = small_pair () in
  let verdict = (Cec.check (Cec.Sweeping Cec_core.Sweep.default_config) golden revised).Cec.verdict in
  (golden, revised, Key.of_pair golden revised, verdict)

let objects_dir dir = Filename.concat dir "objects"

let quarantine_count store =
  match Sys.readdir (Store.quarantine_dir store) with
  | names -> Array.length names
  | exception Sys_error _ -> 0

let test_store_write_fault_tolerated () =
  with_temp_dir "fault-store-write" (fun dir ->
      let golden, revised, key, verdict = solved_pair_and_key () in
      let store = Store.create ~dir () in
      Fault.with_spec (Fault.always "store.write") (fun () -> Store.store store key verdict);
      Alcotest.(check int) "write failure counted" 1 (Store.stats store).Store.write_failures;
      Alcotest.(check bool) "miss, not a crash" true
        (Store.lookup store key ~golden ~revised = None
        && Store.find store key ~golden ~revised = None);
      (* The failed write left an orphan tmp file behind; fsck sweeps it
         into quarantine. *)
      let orphans =
        Sys.readdir (objects_dir dir) |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".part")
      in
      Alcotest.(check int) "orphan tmp left behind" 1 (List.length orphans);
      let report = Store.fsck store in
      Alcotest.(check int) "fsck sweeps the orphan" 1 report.Store.orphan_tmp;
      Alcotest.(check int) "quarantined" 1 report.Store.quarantined;
      Alcotest.(check int) "quarantine holds it" 1 (quarantine_count store);
      (* With the fault gone the same store works again. *)
      Store.store store key verdict;
      Alcotest.(check bool) "stores after recovery" true
        (Store.find store key ~golden ~revised <> None))

let test_store_torn_write_quarantined_on_restart () =
  with_temp_dir "fault-store-torn" (fun dir ->
      let golden, revised, key, verdict = solved_pair_and_key () in
      let ig, ir = small_pair () in
      let ir = Aig.Aiger.of_string (Aig.Aiger.to_string ir) in
      Aig.set_output ir 0 (Aig.Lit.neg (Aig.output ir 0));
      let ir = Key.normalize ir in
      let key2 = Key.of_pair ig ir in
      let verdict2 =
        (Cec.check (Cec.Sweeping Cec_core.Sweep.default_config) ig ir).Cec.verdict
      in
      (* One good object, then a torn write of a second: the crash
         publishes a truncated object file that is in nobody's index. *)
      let store = Store.create ~dir () in
      Store.store store key verdict;
      Fault.with_spec (Fault.always "store.torn_write") (fun () ->
          Store.store store key2 verdict2);
      Alcotest.(check int) "torn write counted" 1 (Store.stats store).Store.write_failures;
      Alcotest.(check int) "both objects on disk" 2 (Array.length (Sys.readdir (objects_dir dir)));
      (* "Restart": a fresh open runs fsck, which must quarantine
         exactly the torn object and keep serving the good one. *)
      let reopened = Store.create ~startup_fsck:false ~dir () in
      let report = Store.fsck reopened in
      Alcotest.(check int) "scanned both" 2 report.Store.scanned;
      Alcotest.(check int) "one valid" 1 report.Store.valid;
      Alcotest.(check int) "exactly the torn object quarantined" 1 report.Store.quarantined;
      Alcotest.(check int) "no orphan tmp" 0 report.Store.orphan_tmp;
      Alcotest.(check int) "quarantine holds it" 1 (quarantine_count reopened);
      Alcotest.(check bool) "good entry still serves warm" true
        (Store.lookup reopened key ~golden ~revised <> None);
      Alcotest.(check bool) "good entry still decodes" true
        (Store.find reopened key ~golden ~revised <> None);
      Alcotest.(check bool) "torn entry is a miss" true
        (Store.lookup reopened key2 ~golden:ig ~revised:ir = None
        && Store.find reopened key2 ~golden:ig ~revised:ir = None);
      (* A second fsck finds a consistent store: nothing left to do. *)
      let again = Store.fsck reopened in
      Alcotest.(check int) "idempotent: nothing quarantined" 0 again.Store.quarantined;
      Alcotest.(check int) "idempotent: nothing adopted" 0 again.Store.adopted)

let test_store_fsck_adopts_unindexed_objects () =
  with_temp_dir "fault-store-adopt" (fun dir ->
      let golden, revised, key, verdict = solved_pair_and_key () in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      (* A forgetful-but-valid index (crash between object publish and
         index save, then an index save for an unrelated reason): the
         object is on disk, the index does not know it.  A bare header
         parses as a valid empty index, so the load-time objects/ rescan
         fallback does not kick in — adoption is fsck's job. *)
      Out_channel.with_open_bin (Filename.concat dir "index") (fun oc ->
          Out_channel.output_string oc (Printf.sprintf "cecproof-index %d\n" Store.format_version));
      let reopened = Store.create ~startup_fsck:false ~dir () in
      let report = Store.fsck reopened in
      Alcotest.(check int) "adopted" 1 report.Store.adopted;
      Alcotest.(check int) "nothing quarantined" 0 report.Store.quarantined;
      Alcotest.(check bool) "adopted object serves" true
        (Store.find reopened key ~golden ~revised <> None))

let test_store_fsck_drops_dangling_index_entries () =
  with_temp_dir "fault-store-dangle" (fun dir ->
      let golden, revised, key, verdict = solved_pair_and_key () in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      (* Lose the object under a live handle that still indexes it
         (opening afresh would already drop it at load time). *)
      Sys.remove (Store.entry_path store key);
      let report = Store.fsck store in
      Alcotest.(check int) "dropped" 1 report.Store.dropped;
      Alcotest.(check bool) "clean miss afterwards" true
        (Store.find store key ~golden ~revised = None))

let test_store_corrupt_read_fault () =
  let golden, revised, key, verdict = solved_pair_and_key () in
  let readers =
    [
      ("find", fun store -> Store.find store key ~golden ~revised <> None);
      ("lookup", fun store -> Store.lookup store key ~golden ~revised <> None);
    ]
  in
  List.iter
    (fun (format_name, cert_format) ->
      List.iter
        (fun (reader, hit) ->
          with_temp_dir "fault-store-corrupt" (fun dir ->
              let what = format_name ^ " via " ^ reader in
              let store = Store.create ~cert_format ~dir () in
              Store.store store key verdict;
              (* Bit-rot injected on the read path: paranoid validation
                 must reject the certificate, not serve it. *)
              let under_fault =
                Fault.with_spec (Fault.always "store.corrupt") (fun () -> hit store)
              in
              Alcotest.(check bool) (what ^ ": corrupted read rejected") false under_fault;
              (* Paranoid mode treats the entry as bit-rot: counted,
                 dropped from the store (the service re-solves), never
                 served. *)
              Alcotest.(check int) (what ^ ": counted as corrupt") 1
                (Store.stats store).Store.corrupt;
              Alcotest.(check bool) (what ^ ": entry dropped") false (Store.mem store key);
              Store.store store key verdict;
              Alcotest.(check bool) (what ^ ": re-stored entry serves clean") true (hit store)))
        readers)
    [ ("bin3", Store.Bin3); ("bin", Store.Bin); ("trace", Store.Trace) ]

(* --- wire helpers --- *)

let test_wire_read_line () =
  let r, w = Unix.pipe () in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  write "hello\nworld\npartial";
  Alcotest.(check (result string string)) "first line" (Ok "hello") (Wire.read_line r);
  Alcotest.(check (result string string)) "second line" (Ok "world") (Wire.read_line r);
  Unix.close w;
  Alcotest.(check (result string string)) "unterminated tail at EOF is an error"
    (Error "connection closed mid-line") (Wire.read_line r);
  Alcotest.(check (result string string)) "EOF before any byte" (Error "connection closed")
    (Wire.read_line r);
  Unix.close r

let test_wire_read_line_cap () =
  let r, w = Unix.pipe () in
  let long = String.make 128 'x' ^ "\n" in
  ignore (Unix.write_substring w long 0 (String.length long));
  (match Wire.read_line ~max_bytes:64 r with
  | Error msg -> Alcotest.(check bool) "cap error mentions length" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "over-long line must be rejected");
  Unix.close r;
  Unix.close w

let test_wire_write_round_trip () =
  (* The long line exceeds one pipe buffer, so write_all's short-write
     loop must run; a concurrent reader keeps the pipe draining. *)
  let r, w = Unix.pipe () in
  let reader =
    Domain.spawn (fun () ->
        let first = Wire.read_line r in
        let second = Wire.read_line ~max_bytes:100_000 r in
        Unix.close r;
        (first, second))
  in
  Wire.write_line w "status ok";
  Wire.write_line w (String.make 70000 'y');
  Unix.close w;
  let first, second = Domain.join reader in
  Alcotest.(check (result string string)) "line round-trips" (Ok "status ok") first;
  (match second with
  | Ok s -> Alcotest.(check int) "long line intact" 70000 (String.length s)
  | Error msg -> Alcotest.failf "long line failed: %s" msg)

let test_wire_socket_framing () =
  (* Sockets take the buffered MSG_PEEK fast path: frames must come
     out exactly as written — including a body far larger than one
     peek chunk — and nothing belonging to a later frame may be
     swallowed by the buffering. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.make 50_000 'z' in
  let writer =
    Domain.spawn (fun () ->
        Wire.write_line a "first";
        Wire.write_line a big;
        Wire.write_line a "last";
        Unix.close a)
  in
  Alcotest.(check (result string string)) "first frame" (Ok "first") (Wire.read_line b);
  (match Wire.read_line ~max_bytes:100_000 b with
  | Ok s -> Alcotest.(check int) "big frame intact" 50_000 (String.length s)
  | Error msg -> Alcotest.failf "big frame failed: %s" msg);
  Alcotest.(check (result string string))
    "later frame not swallowed" (Ok "last") (Wire.read_line b);
  Alcotest.(check (result string string))
    "EOF after the last frame" (Error "connection closed") (Wire.read_line b);
  Domain.join writer;
  Unix.close b

let test_wire_socket_cap () =
  (* The max_bytes bound survives the buffered path too. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Wire.write_line a (String.make 256 'x');
  (match Wire.read_line ~max_bytes:64 b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-long socket line must be rejected");
  Unix.close a;
  Unix.close b

let test_wire_read_deadline () =
  (* A peer that connects and never writes must not block the reader
     past its deadline; the expiry is a typed, comparable error. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t0 = Unix.gettimeofday () in
  (match Wire.read_line ~deadline:(t0 +. 0.15) b with
  | Error msg -> Alcotest.(check string) "typed deadline error" Wire.deadline_error msg
  | Ok s -> Alcotest.failf "read returned %S from a silent peer" s);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 2.0 then Alcotest.failf "deadline read took %.1fs" elapsed;
  (* A half-written line stalls the same way (the connection is
     abandoned mid-frame; real callers close it at this point). *)
  ignore (Unix.write_substring a "half" 0 4);
  (match Wire.read_line ~deadline:(Unix.gettimeofday () +. 0.15) b with
  | Error msg -> Alcotest.(check string) "mid-line stall" Wire.deadline_error msg
  | Ok s -> Alcotest.failf "read returned %S mid-line" s);
  Unix.close a;
  Unix.close b

let test_wire_write_deadline () =
  (* A full receive window must not wedge a deadline write forever:
     once the peer stops draining and the buffers fill, write_all
     raises ETIMEDOUT at the deadline. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.make 1_000_000 'w' in
  (match Wire.write_all ~deadline:(Unix.gettimeofday () +. 0.2) a payload with
  | () -> Alcotest.fail "1MB into an undrained socketpair should exceed the deadline"
  | exception Unix.Unix_error (Unix.ETIMEDOUT, "write", _) -> ());
  Unix.close a;
  Unix.close b

(* --- the retrying client --- *)

let test_client_retries_with_backoff () =
  with_temp_dir "fault-client" (fun dir ->
      (* A stale socket file with no listener: every attempt gets
         ECONNREFUSED, a transient error worth retrying. *)
      let socket_path = Filename.concat dir "stale.sock" in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX socket_path);
      Unix.close fd;
      let sleeps = ref [] in
      let config =
        {
          Client.retries = 3;
          base_delay_ms = 8.0;
          seed = 1;
          sleep = (fun s -> sleeps := s :: !sleeps);
          connect_timeout_ms = None;
          deadline_ms = None;
        }
      in
      (match Client.request ~config ~socket_path "ping" with
      | Ok _ -> Alcotest.fail "nothing is listening; request must fail"
      | Error msg -> Alcotest.(check bool) "last error surfaced" true (String.length msg > 0));
      let sleeps = List.rev !sleeps in
      Alcotest.(check int) "slept once per retry" 3 (List.length sleeps);
      List.iteri
        (fun k s ->
          let base = 0.008 *. (2.0 ** float_of_int k) in
          Alcotest.(check bool)
            (Printf.sprintf "backoff %d in [0.5, 1.5) x base" k)
            true
            (s >= (0.5 *. base) -. 1e-9 && s < 1.5 *. base))
        sleeps)

let test_client_missing_socket_transient () =
  (* ENOENT (daemon not started yet) is also transient. *)
  let sleeps = ref 0 in
  let config =
    {
      Client.retries = 2;
      base_delay_ms = 1.0;
      seed = 0;
      sleep = (fun _ -> incr sleeps);
      connect_timeout_ms = None;
      deadline_ms = None;
    }
  in
  (match Client.request ~config ~socket_path:"/nonexistent/cecd.sock" "ping" with
  | Ok _ -> Alcotest.fail "must fail"
  | Error _ -> ());
  Alcotest.(check int) "retried" 2 !sleeps

let test_client_deadline_caps_backoff () =
  with_temp_dir "fault-deadline" (fun dir ->
      (* A bound socket with no listener: every attempt is a transient
         ECONNREFUSED.  With a deadline the retry loop must stop
         before sleeping past it and surface the last transient error
         under a deadline tag — not burn all 50 retries. *)
      let socket_path = Filename.concat dir "stale.sock" in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX socket_path);
      Unix.close fd;
      let sleeps = ref 0 in
      let config =
        {
          Client.retries = 50;
          base_delay_ms = 40.0;
          seed = 3;
          sleep = (fun _ -> incr sleeps);
          connect_timeout_ms = None;
          deadline_ms = Some 100.0;
        }
      in
      let t0 = Unix.gettimeofday () in
      (match Client.request ~config ~socket_path "ping" with
      | Ok _ -> Alcotest.fail "nothing is listening; request must fail"
      | Error msg ->
        let prefix = "deadline exceeded" in
        Alcotest.(check string)
          "error carries the deadline tag" prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)));
        Alcotest.(check bool) "last transient error preserved" true
          (String.length msg > String.length prefix));
      (* Exponential backoff against a 100ms budget: the loop must bail
         out after a handful of (faked) sleeps, far short of the retry
         budget, and without really sleeping anywhere near 50 rounds. *)
      Alcotest.(check bool)
        (Printf.sprintf "stopped early (%d sleeps)" !sleeps)
        true
        (!sleeps > 0 && !sleeps < 10);
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed > 5.0 then Alcotest.failf "deadline run took %.1fs" elapsed)

(* --- batch degradation --- *)

let test_batch_uncertified_not_cached () =
  with_temp_dir "fault-batch" (fun dir ->
      let golden, revised = small_pair () in
      let path name g =
        let p = Filename.concat dir name in
        Aig.Aiger.write_file p g;
        p
      in
      let pairs = [ (path "g.aig" golden, path "r.aig" revised) ] in
      let store = Store.create ~dir:(Filename.concat dir "store") () in
      let results = ref [] in
      let summary =
        Fault.with_spec (Fault.always "worker.crash") (fun () ->
            Batch.run ~store ~engine:Engine.default_config
              ~on_result:(fun r -> results := r :: !results)
              pairs)
      in
      Alcotest.(check int) "counted as undecided" 1 summary.Batch.undecided;
      Alcotest.(check int) "not an error" 0 summary.Batch.errors;
      (match !results with
      | [ r ] ->
        Alcotest.(check string) "status" "uncertified" r.Batch.status;
        Alcotest.(check bool) "reason in detail" true (String.length r.Batch.detail > 0)
      | _ -> Alcotest.fail "expected one result");
      (* The degraded answer must not have been cached: a clean rerun
         re-solves (miss) and proves. *)
      let clean = Batch.run ~store ~engine:Engine.default_config pairs in
      Alcotest.(check int) "clean rerun misses" 0 clean.Batch.hits;
      Alcotest.(check int) "clean rerun proves" 1 clean.Batch.proved)

(* --- metrics --- *)

let test_metrics_robustness_counters () =
  let m = Metrics.create () in
  Metrics.record m Metrics.Uncertified ~cached:false ~ms:1.0;
  Metrics.record_retry m;
  Metrics.record_retry m;
  Metrics.record_worker_restart m;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "uncertified" 1 s.Metrics.uncertified;
  Alcotest.(check int) "retried" 2 s.Metrics.retried;
  Alcotest.(check int) "worker_restarts" 1 s.Metrics.worker_restarts;
  let rendered = Metrics.to_json s in
  Alcotest.(check bool) "counters exported" true
    (String.length rendered > 0
    && List.mem_assoc "uncertified" (Metrics.fields s)
    && List.mem_assoc "retried" (Metrics.fields s)
    && List.mem_assoc "worker_restarts" (Metrics.fields s))

(* --- the daemon under faults --- *)

let wait_for_server socket_path =
  let rec go n =
    if n = 0 then Alcotest.fail "server did not come up"
    else
      match Server.request ~socket_path "ping" with
      | Ok _ -> ()
      | Error _ ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 250

let field_exn name line =
  match Protocol.field name line with
  | Some v -> v
  | None -> Alcotest.failf "response %s lacks %S" line name

let test_server_reclaims_stale_socket () =
  with_temp_dir "fault-stale-sock" (fun dir ->
      let socket_path = Filename.concat dir "cecd.sock" in
      (* A dead daemon's leftover: the socket file exists, nobody
         listens.  The probe must detect that and reclaim the path. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX socket_path);
      Unix.close fd;
      let cfg =
        {
          (Server.default_config ~socket_path ~store_dir:(Filename.concat dir "store")) with
          Server.log = false;
        }
      in
      let server = Domain.spawn (fun () -> Server.run cfg) in
      wait_for_server socket_path;
      (match Server.request ~socket_path "shutdown" with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
      ignore (Domain.join server))

let test_server_refuses_live_socket () =
  with_temp_dir "fault-live-sock" (fun dir ->
      let socket_path = Filename.concat dir "cecd.sock" in
      let cfg =
        {
          (Server.default_config ~socket_path ~store_dir:(Filename.concat dir "store")) with
          Server.log = false;
        }
      in
      let server = Domain.spawn (fun () -> Server.run cfg) in
      wait_for_server socket_path;
      (* A second daemon on the same socket must fail loudly, not
         steal the path from the live one. *)
      let cfg2 = { cfg with Server.store_dir = Filename.concat dir "store2" } in
      (match Server.run cfg2 with
      | _ -> Alcotest.fail "second daemon must refuse a live socket"
      | exception Failure msg ->
        Alcotest.(check bool) "says the daemon is alive" true
          (String.length msg > 0));
      (* The first daemon kept working. *)
      (match Server.request ~socket_path "ping" with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "live daemon disturbed: %s" msg);
      ignore (Server.request ~socket_path "shutdown");
      ignore (Domain.join server))

let test_server_worker_crash_typed_error () =
  with_temp_dir "fault-worker-crash" (fun dir ->
      let golden, revised = small_pair () in
      let golden_path = Filename.concat dir "golden.aig" in
      let revised_path = Filename.concat dir "revised.aig" in
      Aig.Aiger.write_file golden_path golden;
      Aig.Aiger.write_file revised_path revised;
      let socket_path = Filename.concat dir "cecd.sock" in
      let cfg =
        {
          (Server.default_config ~socket_path ~store_dir:(Filename.concat dir "store")) with
          Server.log = false;
        }
      in
      let server = Domain.spawn (fun () -> Server.run cfg) in
      wait_for_server socket_path;
      let check_line = Printf.sprintf "check %s %s" golden_path revised_path in
      Fun.protect ~finally:Fault.disable @@ fun () ->
      (* Every processing attempt crashes: the job is re-enqueued once,
         then answered with a typed error — never a hung connection. *)
      Fault.install (Fault.always "worker.crash");
      (match Server.request ~socket_path check_line with
      | Ok response ->
        Alcotest.(check string) "typed code" "worker_crashed" (field_exn "code" response);
        Alcotest.(check bool) "carries an error" true
          (Protocol.field "error" response <> None)
      | Error msg -> Alcotest.failf "expected a typed error response, got failure: %s" msg);
      (* The worker survived; without the fault the same request
         succeeds on the same daemon. *)
      Fault.disable ();
      (match Server.request ~socket_path check_line with
      | Ok response -> Alcotest.(check string) "recovered" "equivalent" (field_exn "status" response)
      | Error msg -> Alcotest.failf "post-crash request failed: %s" msg);
      (match Server.request ~socket_path "shutdown" with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "shutdown failed: %s" msg);
      let metrics, _ = Domain.join server in
      Alcotest.(check bool) "retry recorded" true (metrics.Metrics.retried >= 1);
      Alcotest.(check bool) "error recorded" true (metrics.Metrics.errors >= 1))

let suites =
  [
    ( "fault-spec",
      [
        Alcotest.test_case "round trip" `Quick test_spec_round_trip;
        Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
        Alcotest.test_case "deterministic firing" `Quick test_fire_deterministic;
        Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
        Alcotest.test_case "always + restore" `Quick test_always_and_restore;
        Alcotest.test_case "fired injections counted" `Quick test_fired_injections_counted;
      ] );
    ( "fault-supervision",
      [
        Alcotest.test_case "engine propagates degradation" `Quick
          test_engine_propagates_degradation;
        Alcotest.test_case "engine budget fault gives up cleanly" `Quick
          test_engine_budget_fault_gives_up_cleanly;
        Alcotest.test_case "batch uncertified not cached" `Quick test_batch_uncertified_not_cached;
        Alcotest.test_case "metrics robustness counters" `Quick test_metrics_robustness_counters;
      ] );
    ( "fault-store",
      [
        Alcotest.test_case "write fault tolerated" `Quick test_store_write_fault_tolerated;
        Alcotest.test_case "torn write quarantined on restart" `Quick
          test_store_torn_write_quarantined_on_restart;
        Alcotest.test_case "fsck adopts unindexed objects" `Quick
          test_store_fsck_adopts_unindexed_objects;
        Alcotest.test_case "fsck drops dangling index entries" `Quick
          test_store_fsck_drops_dangling_index_entries;
        Alcotest.test_case "corrupt read fault" `Quick test_store_corrupt_read_fault;
      ] );
    ( "fault-wire-client",
      [
        Alcotest.test_case "read_line framing" `Quick test_wire_read_line;
        Alcotest.test_case "read_line cap" `Quick test_wire_read_line_cap;
        Alcotest.test_case "write round trip" `Quick test_wire_write_round_trip;
        Alcotest.test_case "socket framing (buffered)" `Quick test_wire_socket_framing;
        Alcotest.test_case "socket cap (buffered)" `Quick test_wire_socket_cap;
        Alcotest.test_case "read deadline" `Quick test_wire_read_deadline;
        Alcotest.test_case "write deadline" `Quick test_wire_write_deadline;
        Alcotest.test_case "client backoff" `Quick test_client_retries_with_backoff;
        Alcotest.test_case "client missing socket" `Quick test_client_missing_socket_transient;
        Alcotest.test_case "client deadline caps backoff" `Quick
          test_client_deadline_caps_backoff;
      ] );
    ( "fault-daemon",
      [
        Alcotest.test_case "reclaims stale socket" `Quick test_server_reclaims_stale_socket;
        Alcotest.test_case "refuses live socket" `Quick test_server_refuses_live_socket;
        Alcotest.test_case "worker crash typed error" `Quick test_server_worker_crash_typed_error;
      ] );
  ]
