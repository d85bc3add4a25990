(* The fleet layer: consistent-hash ring properties (balance and
   monotonicity, as qcheck properties), address parsing, bounded
   connects, admission control, health tracking, snapshot merging, and
   a full loopback fleet — three TCP shards behind the router, one
   killed mid-run — with every certificate re-verified by the
   streaming checker. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Certify = Cec_core.Certify
module Addr = Service.Addr
module Key = Service.Key
module Protocol = Service.Protocol
module Server = Service.Server
module Store = Service.Store
module Ring = Fleet.Ring
module Health = Fleet.Health
module Admission = Fleet.Admission
module Snapshot = Fleet.Snapshot
module Router = Fleet.Router

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* --- ring --- *)

let test_ring_basics () =
  let ring = Ring.create [ "s0"; "s1"; "s2" ] in
  Alcotest.(check (list string)) "shards sorted" [ "s0"; "s1"; "s2" ] (Ring.shards ring);
  Alcotest.(check int) "vnodes default" Ring.default_vnodes (Ring.vnodes ring);
  (match Ring.lookup ~n:2 ring "some-key" with
  | [ a; b ] ->
    Alcotest.(check bool) "replicas distinct" true (a <> b);
    Alcotest.(check (option string)) "primary is owner" (Some a) (Ring.owner ring "some-key")
  | other -> Alcotest.failf "expected 2 replicas, got %d" (List.length other));
  Alcotest.(check (list string))
    "n beyond shard count saturates" (Ring.shards ring)
    (List.sort compare (Ring.lookup ~n:10 ring "some-key"));
  (* Deterministic: same ring value, same answer. *)
  Alcotest.(check (list string))
    "lookup deterministic" (Ring.lookup ~n:3 ring "k") (Ring.lookup ~n:3 ring "k");
  (* Rejections. *)
  List.iter
    (fun ids ->
      match Ring.create ids with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "ring accepted %s" (String.concat "," ids))
    [ []; [ "dup"; "dup" ]; [ "" ] ]

let test_ring_balance () =
  (* Deterministic balance check: many keys over 8 shards must spread
     within a loose factor of fair share (the ring hash is fixed, so
     this cannot flake). *)
  let shards = List.init 8 (fun i -> Printf.sprintf "shard-%d" i) in
  let ring = Ring.create shards in
  let keys = 4000 in
  let counts = Hashtbl.create 8 in
  for i = 0 to keys - 1 do
    match Ring.owner ring (Printf.sprintf "key-%d" i) with
    | Some s -> Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
    | None -> Alcotest.fail "owner on a non-empty ring"
  done;
  let fair = keys / 8 in
  List.iter
    (fun s ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      if n < fair / 3 || n > fair * 3 then
        Alcotest.failf "shard %s owns %d keys (fair share %d)" s n fair)
    shards

let arb_key = QCheck.(string_gen_of_size (Gen.int_range 1 24) Gen.printable)

let ring_monotonic_add =
  qtest "ring: adding a shard only moves keys to it" arb_key (fun key ->
      let before = Ring.create [ "a"; "b"; "c"; "d"; "e" ] in
      let after = Ring.add before "f" in
      match (Ring.owner before key, Ring.owner after key) with
      | Some o, Some o' -> o' = o || o' = "f"
      | _ -> false)

let ring_monotonic_remove =
  qtest "ring: removing a shard only moves its own keys" arb_key (fun key ->
      let before = Ring.create [ "a"; "b"; "c"; "d"; "e" ] in
      let after = Ring.remove before "c" in
      match (Ring.owner before key, Ring.owner after key) with
      | Some "c", Some o' -> o' <> "c"
      | Some o, Some o' -> o' = o
      | _ -> false)

let ring_replicas_distinct =
  qtest "ring: replica sets are distinct and stable under add" arb_key (fun key ->
      let ring = Ring.create [ "a"; "b"; "c"; "d" ] in
      let reps = Ring.lookup ~n:3 ring key in
      List.length reps = 3 && List.length (List.sort_uniq compare reps) = 3)

let test_ring_movement_fraction () =
  (* Growing 8 -> 9 shards should move roughly 1/9th of the keys; a
     bound of 1/3 leaves lots of room for vnode placement noise while
     still catching a modulo-style rehash (which moves ~8/9). *)
  let shards = List.init 8 (fun i -> Printf.sprintf "shard-%d" i) in
  let before = Ring.create shards in
  let after = Ring.add before "shard-8" in
  let keys = 3000 in
  let moved = ref 0 in
  for i = 0 to keys - 1 do
    let key = Printf.sprintf "key-%d" i in
    if Ring.owner before key <> Ring.owner after key then incr moved
  done;
  if !moved = 0 then Alcotest.fail "no key moved at all";
  if !moved > keys / 3 then
    Alcotest.failf "%d of %d keys moved on one join (expected ~%d)" !moved keys (keys / 9)

let test_moved_fraction_estimate () =
  (* The sampled estimator the router reports at reconfiguration must
     agree with the movement bound pinned above. *)
  let shards = List.init 8 (fun i -> Printf.sprintf "shard-%d" i) in
  let before = Ring.create shards in
  let after = Ring.add before "shard-8" in
  let f = Ring.moved_fraction ~before ~after () in
  if f <= 0.0 || f > 1.0 /. 3.0 then
    Alcotest.failf "moved fraction %.3f outside (0, 1/3] on an 8->9 join" f;
  Alcotest.(check (float 1e-9)) "identical rings move nothing" 0.0
    (Ring.moved_fraction ~before ~after:before ());
  (match Ring.moved_fraction ~keys:0 ~before ~after () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "keys=0 accepted")

(* --- addresses --- *)

let test_addr_parse () =
  let ok spec expected =
    match Addr.parse spec with
    | Ok a when Addr.equal a expected -> ()
    | Ok a -> Alcotest.failf "%S parsed to %s" spec (Addr.to_string a)
    | Error msg -> Alcotest.failf "%S rejected: %s" spec msg
  in
  ok "/tmp/cecd.sock" (Addr.Unix_path "/tmp/cecd.sock");
  ok "cecd.sock" (Addr.Unix_path "cecd.sock");
  ok "127.0.0.1:7311" (Addr.Tcp ("127.0.0.1", 7311));
  ok ":7311" (Addr.Tcp ("", 7311));
  ok "localhost:0" (Addr.Tcp ("localhost", 0));
  (* A path containing '/' is never TCP, digits or not. *)
  ok "/var/run/cecd:1.sock" (Addr.Unix_path "/var/run/cecd:1.sock");
  List.iter
    (fun spec ->
      match Addr.parse spec with
      | Ok a -> Alcotest.failf "%S accepted as %s" spec (Addr.to_string a)
      | Error _ -> ())
    [ ""; "host:99999"; "host:-1" ];
  List.iter
    (fun spec ->
      match Addr.parse spec with
      | Ok a -> Alcotest.(check string) "round-trips" spec (Addr.to_string a)
      | Error msg -> Alcotest.failf "%S rejected: %s" spec msg)
    [ "/tmp/x.sock"; "127.0.0.1:7311"; ":7311" ]

let test_connect_timeout () =
  (* A true black-holed peer cannot be simulated hermetically (CI
     sandboxes may proxy or reject any address), so the deadline path
     is pinned from both reachable sides: a connect that completes must
     hand back a *blocking* descriptor that works, and a refused
     connect must surface as an error within a bound far under the
     kernel's minutes-long own timeout. *)
  let lfd, addr = Addr.bind_listen (Addr.Tcp ("127.0.0.1", 0)) in
  Fun.protect ~finally:(fun () -> Unix.close lfd) (fun () ->
      let fd = Addr.connect ~timeout_ms:500. addr in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let peer, _ = Unix.accept lfd in
          Fun.protect ~finally:(fun () -> Unix.close peer) (fun () ->
              (* The socket must be back in blocking mode: a one-line
                 exchange round-trips. *)
              Service.Wire.write_line fd "ping-bytes";
              match Service.Wire.read_line peer with
              | Ok "ping-bytes" -> ()
              | Ok other -> Alcotest.failf "garbled line %S" other
              | Error msg -> Alcotest.fail msg)));
  let port = match addr with Addr.Tcp (_, p) -> p | _ -> Alcotest.fail "tcp addr" in
  let started = Unix.gettimeofday () in
  (match Addr.connect ~timeout_ms:200. (Addr.Tcp ("127.0.0.1", port)) with
  | fd ->
    Unix.close fd;
    Alcotest.fail "connect to a closed listener succeeded"
  | exception Unix.Unix_error _ -> ());
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > 5.0 then Alcotest.failf "connect took %.1fs despite a 200ms timeout" elapsed;
  (* And the retrying client honours the configured bound end to end:
     a dead Unix socket fails fast instead of hanging. *)
  let config =
    {
      Service.Client.default_config with
      Service.Client.retries = 1;
      base_delay_ms = 1.;
      connect_timeout_ms = Some 200.;
    }
  in
  match Service.Client.request_to ~config [ Addr.Unix_path "/nonexistent/cecd.sock" ] "ping" with
  | Ok _ -> Alcotest.fail "request to a nonexistent socket succeeded"
  | Error _ -> ()

(* --- admission and health --- *)

let test_admission () =
  let adm = Admission.create ~capacity:2 in
  Alcotest.(check bool) "slot 1" true (Admission.try_acquire adm);
  Alcotest.(check bool) "slot 2" true (Admission.try_acquire adm);
  Alcotest.(check bool) "cap reached" false (Admission.try_acquire adm);
  Alcotest.(check int) "in flight" 2 (Admission.in_flight adm);
  Admission.release adm;
  Alcotest.(check bool) "slot freed" true (Admission.try_acquire adm);
  Admission.release adm;
  Admission.release adm;
  (match Admission.release adm with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double release accepted");
  Alcotest.(check (option int)) "with_slot runs" (Some 7) (Admission.with_slot adm (fun () -> 7));
  Alcotest.(check int) "with_slot releases" 0 (Admission.in_flight adm)

let test_health () =
  let h = Health.create ~failure_threshold:2 () in
  Alcotest.(check bool) "starts up" true (Health.up h);
  Alcotest.(check bool) "first failure tolerated" false (Health.record_failure h);
  Alcotest.(check bool) "still up" true (Health.up h);
  Alcotest.(check bool) "second failure transitions" true (Health.record_failure h);
  Alcotest.(check bool) "down" false (Health.up h);
  Alcotest.(check bool) "third failure is not a transition" false (Health.record_failure h);
  Alcotest.(check bool) "success transitions back" true (Health.record_success h);
  Alcotest.(check bool) "up again" true (Health.up h);
  Alcotest.(check bool) "success while up is quiet" false (Health.record_success h)

(* --- snapshot import --- *)

let test_snapshot_merge () =
  let shard = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter shard "service.proved") 3;
  Obs.Counter.add (Obs.Registry.counter shard "service.requests") 5;
  Obs.Gauge.set (Obs.Registry.gauge shard "service.uptime_s") 12.5;
  let line = Obs.Export.stats_json shard in
  let into = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter into "service.proved") 2;
  Obs.Gauge.set (Obs.Registry.gauge into "service.uptime_s") 20.0;
  (match Snapshot.merge_into into line with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "merge rejected a real export: %s" msg);
  Alcotest.(check int) "counters add" 5
    (Obs.Counter.get (Obs.Registry.counter into "service.proved"));
  Alcotest.(check int) "new counters appear" 5
    (Obs.Counter.get (Obs.Registry.counter into "service.requests"));
  Alcotest.(check (float 1e-9)) "gauges keep the max" 20.0
    (Obs.Gauge.get (Obs.Registry.gauge into "service.uptime_s"));
  (* Merging two shard snapshots is associative with the Obs merge:
     importing A then B equals importing B then A. *)
  let other = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter other "service.proved") 7;
  let line2 = Obs.Export.stats_json other in
  let ab = Obs.Registry.create () and ba = Obs.Registry.create () in
  List.iter (fun l -> Result.get_ok (Snapshot.merge_into ab l)) [ line; line2 ];
  List.iter (fun l -> Result.get_ok (Snapshot.merge_into ba l)) [ line2; line ];
  Alcotest.(check int) "import order does not matter"
    (Obs.Counter.get (Obs.Registry.counter ab "service.proved"))
    (Obs.Counter.get (Obs.Registry.counter ba "service.proved"))

let test_snapshot_rejects_garbage () =
  let into = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter into "kept") 1;
  List.iter
    (fun line ->
      match Snapshot.merge_into into line with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted %S" line)
    [
      "";
      "{}";
      "nonsense";
      "{\"counters\":{\"a\":}}";
      "{\"counters\":{\"a\":1}";
      "{\"counters\":{\"UPPER\":1},\"gauges\":{}}";
      "{\"counters\":{\"a\":1,\"b\":nope},\"gauges\":{}}";
    ];
  Alcotest.(check int) "failed merges leave the registry untouched" 1
    (Obs.Counter.get (Obs.Registry.counter into "kept"))

(* --- the loopback fleet, end to end --- *)

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

(* Capture the kernel-assigned address of a port-0 listener. *)
let addr_cell () =
  let cell = Atomic.make None in
  (cell, fun addr -> Atomic.set cell (Some addr))

let await_addr cell =
  let rec go n =
    if n = 0 then Alcotest.fail "listener did not report its address"
    else
      match Atomic.get cell with
      | Some addr -> addr
      | None ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 500

let request_exn addr line =
  match Server.request_addr addr line with
  | Ok response -> response
  | Error msg -> Alcotest.failf "request %S to %s failed: %s" line (Addr.to_string addr) msg

let field_exn name line =
  match Protocol.field name line with
  | Some v -> v
  | None -> Alcotest.failf "response %s lacks %S" line name

let await ~pred ~what =
  let rec go n =
    if n = 0 then Alcotest.failf "timed out waiting for %s" what
    else if pred () then ()
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 200

(* Three normalized pairs with known verdicts and distinct keys. *)
let fleet_pairs () =
  let eq1_g = Key.normalize (Circuits.Adder.ripple_carry 4) in
  let eq1_r = Key.normalize (Circuits.Adder.carry_lookahead 4) in
  let eq2_g = Key.normalize (Circuits.Datapath.parity 8) in
  let eq2_r = Key.normalize (Circuits.Rewrite.double_negate (Circuits.Datapath.parity 8)) in
  let neq_g = Key.normalize (Circuits.Adder.ripple_carry 3) in
  let neq_r =
    let g = Circuits.Adder.ripple_carry 3 in
    Aig.set_output g 0 (Aig.Lit.neg (Aig.output g 0));
    Key.normalize g
  in
  [ (eq1_g, eq1_r, "equivalent"); (eq2_g, eq2_r, "equivalent"); (neq_g, neq_r, "inequivalent") ]

let test_fleet_end_to_end () =
  let dir = temp_dir "fleet-e2e" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pairs =
    List.mapi
      (fun i (golden, revised, expected) ->
        let gp = Filename.concat dir (Printf.sprintf "g%d.aig" i) in
        let rp = Filename.concat dir (Printf.sprintf "r%d.aig" i) in
        Aig.Aiger.write_file gp golden;
        Aig.Aiger.write_file rp revised;
        (golden, revised, gp, rp, expected))
      (fleet_pairs ())
  in
  (* Three shards on ephemeral TCP ports. *)
  let shard_ids = [ "s0"; "s1"; "s2" ] in
  let shards =
    List.map
      (fun id ->
        let store_dir = Filename.concat dir ("store-" ^ id) in
        let cell, on_listen = addr_cell () in
        let cfg =
          {
            (Server.default_config ~socket_path:"unused" ~store_dir) with
            Server.listen = [ Addr.Tcp ("127.0.0.1", 0) ];
            log = false;
            on_listen = (fun addrs -> on_listen (List.hd addrs));
          }
        in
        let domain = Domain.spawn (fun () -> Server.run cfg) in
        (id, store_dir, cell, domain))
      shard_ids
  in
  let shard_addrs =
    List.map (fun (id, _, cell, _) -> (id, await_addr cell)) shards
  in
  (* The router, also on an ephemeral port, with failover replicas. *)
  let router_cell, router_on_listen = addr_cell () in
  let router_cfg =
    {
      (Router.default_config
         ~listen:(Addr.Tcp ("127.0.0.1", 0))
         ~shards:(List.map (fun (id, addr) -> { Router.id; addr }) shard_addrs))
      with
      Router.replicas = 2;
      workers = 2;
      probe_interval_ms = 100.;
      connect_timeout_ms = 1000.;
      log = false;
      on_listen = router_on_listen;
    }
  in
  let router = Domain.spawn (fun () -> Router.run router_cfg) in
  let router_addr = await_addr router_cell in
  Alcotest.(check string) "router answers ping" "true"
    (field_exn "ok" (request_exn router_addr "ping"));

  (* Cold pass: every verdict correct, nothing cached. *)
  List.iter
    (fun (_, _, gp, rp, expected) ->
      let r = request_exn router_addr (Printf.sprintf "check %s %s" gp rp) in
      Alcotest.(check string) "cold verdict" expected (field_exn "status" r);
      Alcotest.(check string) "cold is a miss" "false" (field_exn "cached" r))
    pairs;

  (* Warm pass: served from the stores. *)
  List.iter
    (fun (_, _, gp, rp, expected) ->
      let r = request_exn router_addr (Printf.sprintf "check %s %s" gp rp) in
      Alcotest.(check string) "warm verdict" expected (field_exn "status" r);
      Alcotest.(check string) "warm is a hit" "true" (field_exn "cached" r))
    pairs;

  (* Every certificate reachable through the router path must also
     pass the binary checker against a rebuilt miter — the fleet adds
     transport, not trust. *)
  let ring = Ring.create shard_ids in
  List.iter
    (fun (golden, revised, _, _, expected) ->
      if expected = "equivalent" then begin
        let key = Key.of_pair golden revised in
        let found = ref false in
        List.iter
          (fun (_, store_dir, _, _) ->
            let store = Store.create ~dir:store_dir () in
            match Store.find store key ~golden ~revised with
            | Some (Cec.Equivalent cert) ->
              found := true;
              let leaf_ok = Cnf.Tseitin.miter_mem (Aig.Miter.build golden revised) in
              let bytes = Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root in
              (match Proof.Hint_check.check ~leaf_ok bytes with
              | Ok _ -> ()
              | Error e ->
                Alcotest.failf "stored certificate fails the binary checker: %a"
                  Proof.Hint_check.pp_error e)
            | _ -> ())
          shards;
        if not !found then Alcotest.fail "certificate not found in any shard store"
      end)
    pairs;

  (* Wait until the background replicator has warmed the standby
     replicas (three fresh verdicts, replicas = 2 => three replays). *)
  await
    ~pred:(fun () ->
      int_of_string (field_exn "replicated" (request_exn router_addr "stats")) >= 3)
    ~what:"warm replication to standby replicas";

  (* Kill the primary owner of the first pair mid-run... *)
  let _, _, gp0, rp0, expected0 = List.hd pairs in
  let golden0, revised0, _, _, _ = List.hd pairs in
  let key0 = Key.to_hex (Key.of_pair golden0 revised0) in
  let primary0 =
    match Ring.owner ring key0 with Some s -> s | None -> Alcotest.fail "no owner"
  in
  let killed_addr = List.assoc primary0 shard_addrs in
  Alcotest.(check string) "shard drains" "true"
    (field_exn "draining" (request_exn killed_addr "shutdown"));
  List.iter
    (fun (id, _, _, domain) -> if id = primary0 then ignore (Domain.join domain))
    shards;

  (* ...and the fleet must still answer it correctly (replica hit). *)
  let r = request_exn router_addr (Printf.sprintf "check %s %s" gp0 rp0) in
  Alcotest.(check string) "verdict survives the shard loss" expected0 (field_exn "status" r);
  Alcotest.(check string) "failover hit is warm" "true" (field_exn "cached" r);
  await
    ~pred:(fun () ->
      int_of_string (field_exn "failovers" (request_exn router_addr "stats")) >= 1)
    ~what:"a recorded failover";
  let stats = request_exn router_addr "stats" in
  Alcotest.(check string) "no unavailable responses" "0" (field_exn "unavailable" stats);
  Alcotest.(check string) "dead shard observed" "2" (field_exn "shards_up" stats);

  (* The aggregated fleet snapshot still exports and carries both the
     router's and the surviving shards' counters. *)
  let metrics = request_exn router_addr "metrics" in
  (match Snapshot.counters metrics with
  | Ok counters ->
    let get name = Option.value ~default:0 (List.assoc_opt name counters) in
    Alcotest.(check bool) "fleet counters present" true (get "fleet.forwarded" >= 7);
    Alcotest.(check bool) "shard counters merged" true (get "service.proved" >= 2)
  | Error msg -> Alcotest.failf "fleet snapshot unparsable: %s" msg);

  (* Drain everything. *)
  Alcotest.(check string) "router drains" "true"
    (field_exn "draining" (request_exn router_addr "shutdown"));
  let final = Domain.join router in
  Alcotest.(check bool) "final registry has the failover" true
    (Obs.Counter.get (Obs.Registry.counter final "fleet.failovers") >= 1);
  List.iter
    (fun (id, _, _, domain) ->
      if id <> primary0 then begin
        ignore (request_exn (List.assoc id shard_addrs) "shutdown");
        ignore (Domain.join domain)
      end)
    shards

(* --- live reconfiguration, deadlines, coalescing, shedding --- *)

let start_shard dir id =
  let store_dir = Filename.concat dir ("store-" ^ id) in
  let cell, on_listen = addr_cell () in
  let cfg =
    {
      (Server.default_config ~socket_path:"unused" ~store_dir) with
      Server.listen = [ Addr.Tcp ("127.0.0.1", 0) ];
      log = false;
      on_listen = (fun addrs -> on_listen (List.hd addrs));
    }
  in
  let domain = Domain.spawn (fun () -> Server.run cfg) in
  (id, await_addr cell, domain)

let stop_shard (_, addr, domain) =
  ignore (request_exn addr "shutdown");
  ignore (Domain.join domain)

let start_router ?(replicas = 1) ?(workers = 4) ?(max_inflight = 8) ?(queue_capacity = 128)
    shards =
  let cell, on_listen = addr_cell () in
  let cfg =
    {
      (Router.default_config
         ~listen:(Addr.Tcp ("127.0.0.1", 0))
         ~shards:(List.map (fun (id, addr, _) -> { Router.id; addr }) shards))
      with
      Router.replicas;
      workers;
      max_inflight;
      queue_capacity;
      probe_interval_ms = 100.;
      connect_timeout_ms = 1000.;
      log = false;
      on_listen;
    }
  in
  let domain = Domain.spawn (fun () -> Router.run cfg) in
  (await_addr cell, domain)

let stop_router addr domain =
  ignore (request_exn addr "shutdown");
  ignore (Domain.join domain)

let fault_spec s =
  match Fault.parse s with Ok spec -> spec | Error msg -> Alcotest.fail msg

let test_fleet_reconfiguration () =
  let dir = temp_dir "fleet-reconf" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pairs =
    List.mapi
      (fun i (golden, revised, expected) ->
        let gp = Filename.concat dir (Printf.sprintf "g%d.aig" i) in
        let rp = Filename.concat dir (Printf.sprintf "r%d.aig" i) in
        Aig.Aiger.write_file gp golden;
        Aig.Aiger.write_file rp revised;
        (gp, rp, expected))
      (fleet_pairs ())
  in
  let s0 = start_shard dir "s0" and s1 = start_shard dir "s1" in
  (* s2's daemon is up from the start; it just isn't in the ring yet. *)
  let s2 = start_shard dir "s2" in
  let router_addr, router = start_router ~replicas:2 [ s0; s1 ] in
  let check_all what =
    List.iter
      (fun (gp, rp, expected) ->
        let r = request_exn router_addr (Printf.sprintf "check %s %s" gp rp) in
        Alcotest.(check string) (what ^ " verdict") expected (field_exn "status" r))
      pairs
  in
  let stat name = field_exn name (request_exn router_addr "stats") in
  Alcotest.(check string) "two shards at boot" "2" (stat "shards");
  Alcotest.(check string) "epoch starts at zero" "0" (stat "epoch");
  check_all "pre-join";

  (* Join the standby daemon: no restart, epoch bump, bounded movement. *)
  let _, s2_addr, _ = s2 in
  let join_line = Printf.sprintf "join s2 %s" (Addr.to_string s2_addr) in
  let r = request_exn router_addr join_line in
  Alcotest.(check string) "join ok" "true" (field_exn "ok" r);
  Alcotest.(check string) "join bumps the epoch" "1" (field_exn "epoch" r);
  let moved = float_of_string (field_exn "moved_fraction" r) in
  if moved <= 0.0 || moved > 0.67 then
    Alcotest.failf "2->3 join reports moved fraction %.3f, outside (0, 2/3]" moved;
  Alcotest.(check string) "three shards after join" "3" (stat "shards");
  (match Protocol.field "error" (request_exn router_addr join_line) with
  | Some _ -> ()
  | None -> Alcotest.fail "duplicate join accepted");
  check_all "post-join";

  (* Drain: replica-only, still a member, no epoch bump. *)
  let r = request_exn router_addr "drain s2" in
  Alcotest.(check string) "drain ok" "true" (field_exn "ok" r);
  Alcotest.(check string) "drain keeps the epoch" "1" (field_exn "epoch" r);
  Alcotest.(check string) "draining visible in stats" "1" (stat "shards_draining");
  Alcotest.(check string) "drained shard still counted" "3" (stat "shards");
  check_all "during-drain";

  (* Leave: drains, waits out in-flight work, removes from the ring. *)
  let r = request_exn router_addr "leave s2" in
  Alcotest.(check string) "leave ok" "true" (field_exn "ok" r);
  Alcotest.(check string) "leave names the shard" "s2" (field_exn "removed" r);
  Alcotest.(check string) "leave bumps the epoch" "2" (field_exn "epoch" r);
  Alcotest.(check string) "idle shard drains instantly" "true" (field_exn "drained" r);
  Alcotest.(check string) "back to two shards" "2" (stat "shards");
  Alcotest.(check string) "nothing left draining" "0" (stat "shards_draining");
  check_all "post-leave";

  (* Unknown ids and bad addresses are typed errors, not crashes. *)
  List.iter
    (fun line ->
      match Protocol.field "error" (request_exn router_addr line) with
      | Some _ -> ()
      | None -> Alcotest.failf "%S accepted" line)
    [ "leave ghost"; "drain ghost"; "join s3 nowhere:-1" ];

  (* Shrinking to one shard works; emptying the ring is refused. *)
  Alcotest.(check string) "s1 leaves" "true" (field_exn "ok" (request_exn router_addr "leave s1"));
  (match Protocol.field "error" (request_exn router_addr "leave s0") with
  | Some _ -> ()
  | None -> Alcotest.fail "emptied the ring");
  Alcotest.(check string) "single shard left" "1" (stat "shards");
  Alcotest.(check string) "epoch counts every change" "3" (stat "epoch");
  check_all "single-shard";

  (* The epoch is observable as a fleet gauge, not just in stats. *)
  (match Snapshot.gauges (request_exn router_addr "metrics") with
  | Ok gauges ->
    Alcotest.(check (float 1e-9)) "epoch gauge" 3.0
      (Option.value ~default:(-1.) (List.assoc_opt "fleet.ring_epoch" gauges))
  | Error msg -> Alcotest.failf "fleet metrics unparsable: %s" msg);

  stop_router router_addr router;
  List.iter stop_shard [ s0; s1; s2 ]

let test_fleet_deadline () =
  let dir = temp_dir "fleet-deadline" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let gp = Filename.concat dir "g.aig" and rp = Filename.concat dir "r.aig" in
  Aig.Aiger.write_file gp (Key.normalize (Circuits.Datapath.parity 6));
  Aig.Aiger.write_file rp
    (Key.normalize (Circuits.Rewrite.double_negate (Circuits.Datapath.parity 6)));
  let s0 = start_shard dir "s0" in
  let router_addr, router = start_router [ s0 ] in
  (* Partition the only shard: it accepts connections but never answers.
     The request's own 300ms budget must come back as a typed error long
     before the 10s default, with no router worker wedged. *)
  Fault.with_spec (fault_spec "peer.partition:1.0") (fun () ->
      let t0 = Unix.gettimeofday () in
      let r = request_exn router_addr (Printf.sprintf "check %s %s 300" gp rp) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "typed deadline error" "deadline_exceeded" (field_exn "code" r);
      if elapsed > 5.0 then
        Alcotest.failf "deadline response took %.1fs against a 300ms budget" elapsed);
  let stats = request_exn router_addr "stats" in
  Alcotest.(check bool) "deadline counted" true
    (int_of_string (field_exn "deadline_exceeded" stats) >= 1);
  Alcotest.(check string) "never a wrong or dropped answer" "0" (field_exn "unavailable" stats);
  (* Let the shard's partition window lapse, then it must serve again. *)
  Unix.sleepf 0.7;
  let r = request_exn router_addr (Printf.sprintf "check %s %s" gp rp) in
  Alcotest.(check string) "shard answers after the partition heals" "equivalent"
    (field_exn "status" r);
  stop_router router_addr router;
  stop_shard s0

let test_fleet_coalescing () =
  let dir = temp_dir "fleet-coalesce" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let gp = Filename.concat dir "g.aig" and rp = Filename.concat dir "r.aig" in
  Aig.Aiger.write_file gp (Key.normalize (Circuits.Multiplier.array 4));
  Aig.Aiger.write_file rp (Key.normalize (Circuits.Multiplier.shift_add 4));
  let s0 = start_shard dir "s0" in
  let router_addr, router = start_router ~workers:6 [ s0 ] in
  let line = Printf.sprintf "check %s %s" gp rp in
  let coalesced () = int_of_string (field_exn "coalesced" (request_exn router_addr "stats")) in
  (* The shard-side slow fault keeps every exchange >= 50ms, so a salvo
     of identical keys overlaps in flight; the first round also pays a
     cold multiplier solve.  Retry a few salvos rather than trusting one
     race. *)
  Fault.with_spec (fault_spec "peer.slow:1.0") (fun () ->
      let rec rounds n =
        if coalesced () = 0 then
          if n = 0 then Alcotest.fail "no salvo ever overlapped in flight"
          else begin
            let clients =
              List.init 6 (fun _ -> Domain.spawn (fun () -> Server.request_addr router_addr line))
            in
            List.iter
              (fun d ->
                match Domain.join d with
                | Ok r ->
                  Alcotest.(check string) "salvo verdict" "equivalent" (field_exn "status" r)
                | Error msg -> Alcotest.failf "salvo request failed: %s" msg)
              clients;
            rounds (n - 1)
          end
      in
      rounds 20);
  Alcotest.(check bool) "coalesced requests counted" true (coalesced () >= 1);
  stop_router router_addr router;
  stop_shard s0

let test_fleet_shedding_concurrent () =
  let dir = temp_dir "fleet-shed" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* Eight distinct keys, so coalescing cannot absorb the burst. *)
  let lines =
    List.init 8 (fun i ->
        let n = 4 + i in
        let gp = Filename.concat dir (Printf.sprintf "g%d.aig" i) in
        let rp = Filename.concat dir (Printf.sprintf "r%d.aig" i) in
        Aig.Aiger.write_file gp (Key.normalize (Circuits.Datapath.parity n));
        Aig.Aiger.write_file rp
          (Key.normalize (Circuits.Rewrite.double_negate (Circuits.Datapath.parity n)));
        Printf.sprintf "check %s %s" gp rp)
  in
  let s0 = start_shard dir "s0" in
  let router_addr, router = start_router ~workers:4 ~max_inflight:1 ~queue_capacity:1 [ s0 ] in
  let responses =
    (* peer.slow holds the one admitted forward >= 50ms, and a start
       barrier lands all eight clients inside that window. *)
    Fault.with_spec (fault_spec "peer.slow:1.0") (fun () ->
        let ready = Atomic.make 0 in
        let clients =
          List.map
            (fun line ->
              Domain.spawn (fun () ->
                  Atomic.incr ready;
                  while Atomic.get ready < 8 do
                    Domain.cpu_relax ()
                  done;
                  Server.request_addr router_addr line))
            lines
        in
        List.map Domain.join clients)
  in
  let ok = ref 0 and shed = ref 0 in
  List.iter
    (fun resp ->
      match resp with
      | Error msg -> Alcotest.failf "client saw a transport error: %s" msg
      | Ok r -> (
        match Protocol.field "status" r with
        | Some "equivalent" -> incr ok
        | Some other -> Alcotest.failf "wrong verdict %S under overload" other
        | None ->
          Alcotest.(check string) "typed overload" "overloaded" (field_exn "code" r);
          ignore (int_of_string (field_exn "retry_after_ms" r));
          incr shed))
    responses;
  Alcotest.(check int) "every client answered" 8 (!ok + !shed);
  if !ok = 0 then Alcotest.fail "nothing got through the burst";
  if !shed = 0 then Alcotest.fail "an 8-way burst against in-flight 1 shed nothing";
  (* The router's books agree with what the clients saw. *)
  let stats = request_exn router_addr "stats" in
  Alcotest.(check int) "overloaded counter matches the shed clients" !shed
    (int_of_string (field_exn "overloaded" stats));
  Alcotest.(check int) "forwarded counter matches the served clients" !ok
    (int_of_string (field_exn "forwarded" stats));
  Alcotest.(check string) "no unavailable responses" "0" (field_exn "unavailable" stats);
  Alcotest.(check string) "distinct keys never coalesce" "0" (field_exn "coalesced" stats);
  stop_router router_addr router;
  stop_shard s0

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "ring basics" `Quick test_ring_basics;
        Alcotest.test_case "ring balance" `Quick test_ring_balance;
        ring_monotonic_add;
        ring_monotonic_remove;
        ring_replicas_distinct;
        Alcotest.test_case "ring movement on join" `Quick test_ring_movement_fraction;
        Alcotest.test_case "moved-fraction estimator" `Quick test_moved_fraction_estimate;
        Alcotest.test_case "addr parse" `Quick test_addr_parse;
        Alcotest.test_case "connect timeout is bounded" `Quick test_connect_timeout;
        Alcotest.test_case "admission" `Quick test_admission;
        Alcotest.test_case "health" `Quick test_health;
        Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
        Alcotest.test_case "snapshot rejects garbage" `Quick test_snapshot_rejects_garbage;
        Alcotest.test_case "loopback fleet end to end" `Slow test_fleet_end_to_end;
        Alcotest.test_case "live ring reconfiguration" `Slow test_fleet_reconfiguration;
        Alcotest.test_case "deadline beats a partitioned shard" `Slow test_fleet_deadline;
        Alcotest.test_case "identical keys coalesce" `Slow test_fleet_coalescing;
        Alcotest.test_case "overload burst sheds typed errors" `Slow test_fleet_shedding_concurrent;
      ] );
  ]
