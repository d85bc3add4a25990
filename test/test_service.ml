(* The certification service: content-addressed keys, the persistent
   certificate store (round-trips, corruption, version skew, eviction),
   the deadline/escalation engine, the wire protocol, batch mode, and a
   full in-process daemon life cycle over a real Unix socket. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Certify = Cec_core.Certify
module Key = Service.Key
module Protocol = Service.Protocol
module Metrics = Service.Metrics
module Store = Service.Store
module Engine = Service.Engine
module Server = Service.Server
module Batch = Service.Batch

let sweeping = Cec.Sweeping Sweep.default_config

(* --- scratch directories --- *)

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* --- solved pairs to exercise the store with --- *)

(* A normalized equivalent pair plus its real certificate, as the
   service would produce it. *)
let equivalent_pair () =
  let case = List.hd Circuits.Suite.small in
  let golden = Key.normalize (case.Circuits.Suite.golden ()) in
  let revised = Key.normalize (case.Circuits.Suite.revised ()) in
  match (Cec.check sweeping golden revised).Cec.verdict with
  | Cec.Equivalent _ as verdict -> (golden, revised, verdict)
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.fail "suite case did not prove equivalent"

let inequivalent_pair () =
  let golden = Key.normalize (Circuits.Adder.ripple_carry 3) in
  let revised = Circuits.Adder.ripple_carry 3 in
  Aig.set_output revised 0 (Aig.Lit.neg (Aig.output revised 0));
  let revised = Key.normalize revised in
  match (Cec.check sweeping golden revised).Cec.verdict with
  | Cec.Inequivalent _ as verdict -> (golden, revised, verdict)
  | Cec.Equivalent _ | Cec.Undecided -> Alcotest.fail "corrupted pair not refuted"

(* --- keys --- *)

let test_key_deterministic () =
  let golden, revised, _ = equivalent_pair () in
  let k = Key.of_pair golden revised in
  Alcotest.(check bool) "same pair, same key" true (Key.equal k (Key.of_pair golden revised));
  Alcotest.(check bool) "order matters" false (Key.equal k (Key.of_pair revised golden));
  (match Key.of_hex (Key.to_hex k) with
  | Some k' -> Alcotest.(check bool) "hex round-trip" true (Key.equal k k')
  | None -> Alcotest.fail "to_hex not parsable");
  (* Serialization-based addressing: a structurally identical reparse
     keys identically. *)
  let reread = Aig.Aiger.of_string (Aig.Aiger.to_string golden) in
  Alcotest.(check bool) "reparse keys identically" true
    (Key.equal k (Key.of_pair reread revised))

let test_key_ignores_dead_nodes () =
  let golden, revised, _ = equivalent_pair () in
  let k = Key.of_pair golden revised in
  let padded = Aig.Aiger.of_string (Aig.Aiger.to_string golden) in
  (* Grow logic that feeds no output: the key must not move. *)
  let x = Aig.xor_ padded (Aig.input padded 0) (Aig.input padded 2) in
  let y = Aig.xor_ padded x (Aig.input padded 1) in
  let (_ : Aig.Lit.t) = Aig.and_ padded y (Aig.Lit.neg (Aig.input padded 3)) in
  Alcotest.(check bool) "dead logic was actually added" true
    (Aig.num_ands padded > Aig.num_ands golden);
  Alcotest.(check bool) "dead nodes do not perturb the key" true
    (Key.equal k (Key.of_pair padded revised))

let test_key_sees_live_changes () =
  let golden, revised, _ = equivalent_pair () in
  let k = Key.of_pair golden revised in
  let negated = Aig.Aiger.of_string (Aig.Aiger.to_string golden) in
  Aig.set_output negated 0 (Aig.Lit.neg (Aig.output negated 0));
  Alcotest.(check bool) "live change moves the key" false
    (Key.equal k (Key.of_pair negated revised))

let test_key_of_hex_rejects () =
  List.iter
    (fun s ->
      match Key.of_hex s with
      | Some _ -> Alcotest.failf "of_hex accepted %S" s
      | None -> ())
    [ ""; "abc"; String.make 32 'X'; String.make 31 'a'; String.make 33 'a'; String.make 32 'g' ]

(* --- protocol --- *)

let test_protocol_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.parse_request (Protocol.print_request req) with
      | Ok req' when req' = req -> ()
      | Ok _ -> Alcotest.failf "round-trip changed %S" (Protocol.print_request req)
      | Error msg -> Alcotest.failf "round-trip rejected %S: %s" (Protocol.print_request req) msg)
    [
      Protocol.Check { golden = "a.aig"; revised = "b.aig"; timeout_ms = None };
      Protocol.Check { golden = "x.blif"; revised = "y.blif"; timeout_ms = Some 250 };
      Protocol.Stats;
      Protocol.Ping;
      Protocol.Shutdown;
    ]

let test_protocol_rejects_malformed () =
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse accepted %S" line)
    [ ""; "   "; "check"; "check only-one"; "check a b notanumber"; "frobnicate a b" ]

let test_protocol_json_fields () =
  let line =
    Protocol.to_json
      [
        ("path", Protocol.String "x \"quoted\"\\back\nline");
        ("count", Protocol.Int 42);
        ("flag", Protocol.Bool true);
        ("ms", Protocol.Float 1.5);
      ]
  in
  Alcotest.(check (option string)) "escaped string" (Some "x \"quoted\"\\back\nline")
    (Protocol.field "path" line);
  Alcotest.(check (option string)) "int" (Some "42") (Protocol.field "count" line);
  Alcotest.(check (option string)) "bool" (Some "true") (Protocol.field "flag" line);
  Alcotest.(check (option string)) "absent" None (Protocol.field "missing" line);
  Alcotest.(check (option string)) "error helper" (Some "boom")
    (Protocol.field "error" (Protocol.error_response "boom"))

(* --- metrics --- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr_requests m;
  Metrics.incr_requests m;
  Metrics.record m Metrics.Proved ~cached:false ~ms:10.0;
  Metrics.record m Metrics.Proved ~cached:true ~ms:2.0;
  Metrics.record m Metrics.Counterexample ~cached:false ~ms:6.0;
  Metrics.record m Metrics.Timeout ~cached:false ~ms:1.0;
  Metrics.record_rejected m;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "requests" 2 s.Metrics.requests;
  Alcotest.(check int) "proved" 2 s.Metrics.proved;
  Alcotest.(check int) "cex" 1 s.Metrics.counterexamples;
  Alcotest.(check int) "timeouts" 1 s.Metrics.timeouts;
  Alcotest.(check int) "hits" 1 s.Metrics.hits;
  Alcotest.(check int) "misses" 3 s.Metrics.misses;
  Alcotest.(check int) "rejected" 1 s.Metrics.rejected;
  Alcotest.(check int) "hit samples" 1 s.Metrics.hit_latency.Metrics.count;
  Alcotest.(check (float 1e-9)) "solve total" 17.0 s.Metrics.solve_latency.Metrics.total_ms;
  Alcotest.(check (float 1e-9)) "solve max" 10.0 s.Metrics.solve_latency.Metrics.max_ms

(* --- store --- *)

let find_cert store key ~golden ~revised =
  match Store.find store key ~golden ~revised with
  | Some (Cec.Equivalent cert) -> cert
  | Some _ -> Alcotest.fail "stored verdict changed kind"
  | None -> Alcotest.fail "stored certificate not found"

let test_store_roundtrip_equivalent () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Alcotest.(check bool) "empty store misses" true
        (Store.find store key ~golden ~revised = None);
      Store.store store key verdict;
      Alcotest.(check bool) "mem after store" true (Store.mem store key);
      let cert = find_cert store key ~golden ~revised in
      (match Certify.validate_against cert golden revised with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reloaded certificate rejected: %a" Certify.pp_error e);
      let s = Store.stats store in
      Alcotest.(check int) "one entry" 1 s.Store.entries;
      Alcotest.(check int) "one hit" 1 s.Store.hits;
      Alcotest.(check int) "one miss" 1 s.Store.misses)

let test_store_roundtrip_inequivalent () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = inequivalent_pair () in
      let original =
        match verdict with Cec.Inequivalent cex -> cex | _ -> assert false
      in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      match Store.find store key ~golden ~revised with
      | Some (Cec.Inequivalent cex) ->
        Alcotest.(check bool) "witness preserved" true (cex = original);
        let miter = Aig.Miter.build golden revised in
        Alcotest.(check bool) "witness still distinguishes" true (Aig.eval miter cex).(0)
      | _ -> Alcotest.fail "stored counterexample not found")

let test_store_ignores_undecided () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, _ = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Store.store store key Cec.Undecided;
      Alcotest.(check bool) "undecided not stored" false (Store.mem store key);
      Alcotest.(check int) "no store counted" 0 (Store.stats store).Store.stores)

let test_store_persists_across_reopen () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      Store.flush store;
      (* A second process: fresh handle over the same directory. *)
      let reopened = Store.create ~dir () in
      let cert = find_cert reopened key ~golden ~revised in
      match Certify.validate_against cert golden revised with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "persisted certificate rejected: %a" Certify.pp_error e)

(* Both store reads: the verdict-only [lookup] that serves [check]
   requests, and [find], which also decodes the certificate. *)
let store_readers =
  [
    ("find", fun store key ~golden ~revised -> Store.find store key ~golden ~revised <> None);
    ("lookup", fun store key ~golden ~revised -> Store.lookup store key ~golden ~revised <> None);
  ]

let cert_formats = [ ("bin3", Store.Bin3); ("bin", Store.Bin); ("trace", Store.Trace) ]

(* Every body format through every read, each in a fresh store. *)
let for_each_format_and_reader f =
  List.iter
    (fun (format_name, cert_format) ->
      List.iter
        (fun (reader, hit) ->
          with_temp_dir "cecd-store" (fun dir ->
              f ~what:(format_name ^ " via " ^ reader) ~cert_format ~hit dir))
        store_readers)
    cert_formats

(* Flip one byte of the stored body: the store must reject the entry,
   delete it and report a miss, so the caller re-solves. *)
let test_store_drops_corrupt_entry () =
  let golden, revised, verdict = equivalent_pair () in
  let key = Key.of_pair golden revised in
  for_each_format_and_reader (fun ~what ~cert_format ~hit dir ->
      let store = Store.create ~cert_format ~dir () in
      Store.store store key verdict;
      let path = Store.entry_path store key in
      let data = read_file path in
      let pos =
        let rec digit i = if data.[i] >= '0' && data.[i] <= '9' then i else digit (i + 1) in
        digit (String.length data / 2)
      in
      write_file path
        (String.mapi (fun i c -> if i = pos then 'x' else c) data);
      Alcotest.(check bool) (what ^ ": corrupt entry is a miss") false
        (hit store key ~golden ~revised);
      let s = Store.stats store in
      Alcotest.(check int) (what ^ ": corruption counted") 1 s.Store.corrupt;
      Alcotest.(check int) (what ^ ": entry deleted") 0 s.Store.entries;
      Alcotest.(check bool) (what ^ ": file deleted") false (Sys.file_exists path);
      (* Falling back to solving and re-storing heals the entry. *)
      Store.store store key verdict;
      Alcotest.(check bool) (what ^ ": healed") true (hit store key ~golden ~revised);
      let (_ : Cec.certificate) = find_cert store key ~golden ~revised in
      ())

(* Without paranoia a read skips the pair-specific check but not the
   structural pass that fsck also runs: a torn body is still a miss,
   and fsck quarantines it.  The cut falls on a line boundary, so a
   torn ASCII trace still parses and only the structural check (its
   root is no longer the empty clause) can reject it. *)
let test_store_trusting_read_rejects_torn_body () =
  let golden, revised, verdict = equivalent_pair () in
  let key = Key.of_pair golden revised in
  let tear path =
    let data = read_file path in
    let cut = String.rindex_from data (2 * String.length data / 3) '\n' + 1 in
    write_file path (String.sub data 0 cut)
  in
  for_each_format_and_reader (fun ~what ~cert_format ~hit dir ->
      let store = Store.create ~paranoid:false ~cert_format ~dir () in
      Store.store store key verdict;
      tear (Store.entry_path store key);
      Alcotest.(check bool) (what ^ ": torn body is a miss") false (hit store key ~golden ~revised);
      Alcotest.(check int) (what ^ ": counted as corrupt") 1 (Store.stats store).Store.corrupt;
      Store.store store key verdict;
      Alcotest.(check bool) (what ^ ": whole body served") true (hit store key ~golden ~revised);
      tear (Store.entry_path store key);
      Alcotest.(check int) (what ^ ": fsck quarantines it") 1 (Store.fsck store).Store.quarantined)

(* A hit moves its LRU stamp in memory only: the index file keeps its
   bytes and its inode (no rewrite at all) across hits of every kind,
   and [flush] is what persists the moved stamps. *)
let test_store_hits_leave_index_alone () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let igolden, irevised, iverdict = inequivalent_pair () in
      let key = Key.of_pair golden revised and ikey = Key.of_pair igolden irevised in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      Store.store store ikey iverdict;
      let index = Filename.concat dir "index" in
      let before = read_file index and inode = (Unix.stat index).Unix.st_ino in
      for _ = 1 to 3 do
        (match Store.lookup store key ~golden ~revised with
        | Some Store.Equivalent -> ()
        | Some (Store.Inequivalent _) | None -> Alcotest.fail "equivalent entry not served");
        (match Store.lookup store ikey ~golden:igolden ~revised:irevised with
        | Some (Store.Inequivalent cex) ->
          Alcotest.(check bool) "witness still distinguishes" true
            (Aig.eval (Aig.Miter.build igolden irevised) cex).(0)
        | Some Store.Equivalent | None -> Alcotest.fail "inequivalent entry not served");
        let (_ : Cec.certificate) = find_cert store key ~golden ~revised in
        ()
      done;
      Alcotest.(check int) "nine hits" 9 (Store.stats store).Store.hits;
      Alcotest.(check string) "index bytes unchanged by hits" before (read_file index);
      Alcotest.(check int) "index not rewritten" inode (Unix.stat index).Unix.st_ino;
      Store.flush store;
      Alcotest.(check bool) "flush persists the moved stamps" true (read_file index <> before))

(* After [flush] and a reopen, eviction follows the hits: the oldest
   entry, read last, outlives the entries stored after it. *)
let test_store_lru_follows_flushed_hits () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = inequivalent_pair () in
      let key_of i =
        match Key.of_hex (Printf.sprintf "%032x" (0xcafe + i)) with
        | Some k -> k
        | None -> Alcotest.fail "bad fabricated key"
      in
      let entry_bytes =
        let probe = Store.create ~dir:(Filename.concat dir "probe") () in
        Store.store probe (key_of 0) verdict;
        (Store.stats probe).Store.bytes
      in
      let main = Filename.concat dir "main" in
      let open_store () = Store.create ~capacity_bytes:(3 * entry_bytes) ~dir:main () in
      let store = open_store () in
      List.iter (fun i -> Store.store store (key_of i) verdict) [ 1; 2; 3 ];
      Alcotest.(check bool) "oldest entry hit" true
        (Store.lookup store (key_of 1) ~golden ~revised <> None);
      Store.flush store;
      let reopened = open_store () in
      Store.store reopened (key_of 4) verdict;
      Alcotest.(check int) "one eviction" 1 (Store.stats reopened).Store.evictions;
      Alcotest.(check bool) "hit entry survives" true (Store.mem reopened (key_of 1));
      Alcotest.(check bool) "least recently used evicted" false (Store.mem reopened (key_of 2));
      Alcotest.(check bool) "newer entry kept" true (Store.mem reopened (key_of 3)))

(* A semantically corrupted proof (valid syntax, broken resolution)
   must be caught by paranoid re-validation. *)
let test_store_paranoid_catches_wrong_proof () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let other_golden, _, _ = inequivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      (* Store a certificate for the WRONG pair under this key, as an
         adversary (or a colliding write) might. *)
      (match (Cec.check sweeping other_golden other_golden).Cec.verdict with
      | Cec.Equivalent _ as wrong -> Store.store store key wrong
      | _ -> Alcotest.fail "self-check did not prove equivalent");
      Alcotest.(check bool) "foreign certificate rejected" true
        (Store.find store key ~golden ~revised = None);
      Alcotest.(check int) "counted as corrupt" 1 (Store.stats store).Store.corrupt;
      (* The honest certificate still stores and loads. *)
      Store.store store key verdict;
      let (_ : Cec.certificate) = find_cert store key ~golden ~revised in
      ())

let test_store_version_skew_is_miss () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      let path = Store.entry_path store key in
      let data = read_file path in
      let newline = String.index data '\n' in
      write_file path
        (Printf.sprintf "cecproof-cert %d%s" (Store.format_version + 1)
           (String.sub data newline (String.length data - newline)));
      Alcotest.(check bool) "future version is a miss" true
        (Store.find store key ~golden ~revised = None);
      Alcotest.(check int) "version skew counted as corrupt" 1 (Store.stats store).Store.corrupt)

let test_store_rebuilds_lost_index () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      Store.flush store;
      (* Trash the index; the objects survive and the store recovers. *)
      write_file (Filename.concat dir "index") "not an index at all\ngarbage\n";
      let reopened = Store.create ~dir () in
      Alcotest.(check int) "entries recovered by scan" 1 (Store.stats reopened).Store.entries;
      let (_ : Cec.certificate) = find_cert reopened key ~golden ~revised in
      ())

(* New entries carry the hinted CECB binary body; the search-free
   hinted checker is the paranoid re-validation path for them. *)
let test_store_writes_binary_bodies () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~dir () in
      Store.store store key verdict;
      let data = read_file (Store.entry_path store key) in
      let expected = Printf.sprintf "cecproof-cert %d\nequivalent bin3\n" Store.format_version in
      Alcotest.(check string) "v3 header + bin3 verdict" expected
        (String.sub data 0 (String.length expected));
      let body =
        String.sub data (String.length expected) (String.length data - String.length expected)
      in
      Alcotest.(check bool) "hinted CECB body" true (Proof.Binfmt.is_hinted body);
      let cert = find_cert store key ~golden ~revised in
      match Certify.validate_against cert golden revised with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "decoded binary certificate rejected: %a" Certify.pp_error e)

(* A store directory written by format version 2 ("equivalent bin",
   un-hinted CECB body) keeps answering hits. *)
let test_store_reads_legacy_v2_objects () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let cert = match verdict with Cec.Equivalent c -> c | _ -> assert false in
      let key = Key.of_pair golden revised in
      let probe = Store.create ~dir () in
      write_file (Store.entry_path probe key)
        (Printf.sprintf "cecproof-cert 2\nequivalent bin\n%s"
           (Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root));
      let store = Store.create ~dir () in
      let loaded = find_cert store key ~golden ~revised in
      (match Certify.validate_against loaded golden revised with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "legacy v2 certificate rejected: %a" Certify.pp_error e);
      Alcotest.(check int) "served as a hit" 1 (Store.stats store).Store.hits)

let test_store_trace_format_roundtrip () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let key = Key.of_pair golden revised in
      let store = Store.create ~cert_format:Store.Trace ~dir () in
      Store.store store key verdict;
      let data = read_file (Store.entry_path store key) in
      let expected = Printf.sprintf "cecproof-cert %d\nequivalent trace\n" Store.format_version in
      Alcotest.(check string) "v2 header + trace verdict" expected
        (String.sub data 0 (String.length expected));
      let (_ : Cec.certificate) = find_cert store key ~golden ~revised in
      ())

(* A store directory written before the binary format (version-1
   header, bare "equivalent", ASCII trace) keeps answering hits. *)
let test_store_reads_legacy_v1_objects () =
  with_temp_dir "cecd-store" (fun dir ->
      let golden, revised, verdict = equivalent_pair () in
      let cert = match verdict with Cec.Equivalent c -> c | _ -> assert false in
      let key = Key.of_pair golden revised in
      let probe = Store.create ~dir () in
      let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
      write_file (Store.entry_path probe key)
        (Printf.sprintf "cecproof-cert 1\nequivalent\n%s"
           (Proof.Export.trace_to_string trimmed ~root));
      (* A fresh handle finds the hand-planted v1 object by scanning
         objects/ (there is no index yet) and serves it. *)
      let store = Store.create ~dir () in
      let loaded = find_cert store key ~golden ~revised in
      (match Certify.validate_against loaded golden revised with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "legacy certificate rejected: %a" Certify.pp_error e);
      Alcotest.(check int) "served as a hit" 1 (Store.stats store).Store.hits)

let test_store_lru_eviction () =
  with_temp_dir "cecd-store" (fun dir ->
      (* Small fabricated counterexample entries with distinct keys. *)
      let key_of i =
        match Key.of_hex (Printf.sprintf "%032x" (0xbeef + i)) with
        | Some k -> k
        | None -> Alcotest.fail "bad fabricated key"
      in
      let entry_bytes =
        let probe = Store.create ~dir:(Filename.concat dir "probe") () in
        Store.store probe (key_of 0) (Cec.Inequivalent (Array.make 4 false));
        (Store.stats probe).Store.bytes
      in
      let store =
        Store.create ~capacity_bytes:(3 * entry_bytes) ~dir:(Filename.concat dir "main") ()
      in
      for i = 1 to 8 do
        Store.store store (key_of i) (Cec.Inequivalent (Array.make 4 false))
      done;
      let s = Store.stats store in
      Alcotest.(check bool) "evictions happened" true (s.Store.evictions > 0);
      Alcotest.(check bool) "capacity respected" true (s.Store.bytes <= 3 * entry_bytes);
      (* LRU order: the newest entries survive. *)
      Alcotest.(check bool) "newest survives" true (Store.mem store (key_of 8));
      Alcotest.(check bool) "oldest evicted" false (Store.mem store (key_of 1)))

(* --- fake clocks --- *)

(* Every call returns [step] more than the last: deadline paths fire
   deterministically, with no real waiting and no dependence on machine
   speed.  Thread-safe, so a server config can share one across its
   accept loop and worker domains. *)
let ticking_clock ?(start = 0.0) ~step () =
  let lock = Mutex.create () and t = ref start in
  fun () ->
    Mutex.protect lock (fun () ->
        let v = !t in
        t := v +. step;
        v)

(* --- engine --- *)

let test_engine_expired_deadline () =
  let golden, revised, _ = equivalent_pair () in
  let result =
    Engine.solve
      ~clock:(fun () -> 100.0)
      ~deadline:100.0 Engine.default_config golden revised
  in
  Alcotest.(check bool) "timed out" true result.Engine.timed_out;
  Alcotest.(check bool) "undecided" true (result.Engine.verdict = Cec.Undecided);
  Alcotest.(check int) "no rounds run" 0 result.Engine.rounds

let test_engine_deadline_expires_between_rounds () =
  (* Budget 1 cannot decide this pair, so escalation would normally run
     more rounds; the clock ticks 10 s per deadline check, so the check
     before round 2 (t = 110 >= 105) cancels the escalation. *)
  let golden = Circuits.Multiplier.array 3 and revised = Circuits.Multiplier.shift_add 3 in
  let clock = ticking_clock ~start:100.0 ~step:10.0 () in
  let config =
    {
      Engine.default_config with
      Engine.engine = Cec.Monolithic;
      budget = Some 1;
      escalation = 2;
      max_rounds = 10;
    }
  in
  let result = Engine.solve ~clock ~deadline:105.0 config golden revised in
  Alcotest.(check bool) "timed out" true result.Engine.timed_out;
  Alcotest.(check bool) "undecided" true (result.Engine.verdict = Cec.Undecided);
  Alcotest.(check int) "exactly one round ran" 1 result.Engine.rounds

let test_engine_budget_exhaustion () =
  let golden = Circuits.Multiplier.array 3 and revised = Circuits.Multiplier.shift_add 3 in
  let config =
    {
      Engine.default_config with
      Engine.engine = Cec.Monolithic;
      budget = Some 1;
      escalation = 2;
      max_rounds = 1;
    }
  in
  let result = Engine.solve config golden revised in
  Alcotest.(check bool) "undecided under 1 conflict" true (result.Engine.verdict = Cec.Undecided);
  Alcotest.(check bool) "not a timeout" false result.Engine.timed_out;
  Alcotest.(check int) "one round" 1 result.Engine.rounds

let test_engine_escalation_decides () =
  let golden, revised, _ = equivalent_pair () in
  let config =
    { Engine.default_config with Engine.budget = Some 1; escalation = 8; max_rounds = 6 }
  in
  let result = Engine.solve config golden revised in
  (match result.Engine.verdict with
  | Cec.Equivalent cert -> (
    match Certify.validate_against cert golden revised with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "escalated certificate rejected: %a" Certify.pp_error e)
  | Cec.Inequivalent _ -> Alcotest.fail "spurious counterexample"
  | Cec.Undecided -> Alcotest.fail "escalation failed to decide a small pair");
  Alcotest.(check bool) "ran at least one round" true (result.Engine.rounds >= 1)

(* --- batch mode --- *)

let test_batch_manifest_parsing () =
  with_temp_dir "cecd-batch" (fun dir ->
      let manifest = Filename.concat dir "manifest.txt" in
      write_file manifest "# comment\n\n  a.aig b.aig  \nsub/c.aig /abs/d.aig\n";
      (match Batch.parse_manifest manifest with
      | Ok
          [
            (g0, r0);
            (g1, r1);
          ] ->
        Alcotest.(check string) "relative golden" (Filename.concat dir "a.aig") g0;
        Alcotest.(check string) "relative revised" (Filename.concat dir "b.aig") r0;
        Alcotest.(check string) "relative subdir" (Filename.concat dir "sub/c.aig") g1;
        Alcotest.(check string) "absolute kept" "/abs/d.aig" r1
      | Ok _ -> Alcotest.fail "wrong pair count"
      | Error msg -> Alcotest.failf "manifest rejected: %s" msg);
      write_file manifest "a.aig\n";
      match Batch.parse_manifest manifest with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed line accepted")

let test_batch_cold_then_warm () =
  with_temp_dir "cecd-batch" (fun dir ->
      let golden, revised, _ = equivalent_pair () in
      let ineq_golden, ineq_revised, _ = inequivalent_pair () in
      let path name g =
        let p = Filename.concat dir name in
        Aig.Aiger.write_file p g;
        p
      in
      let pairs =
        [
          (path "eq-golden.aig" golden, path "eq-revised.aig" revised);
          (path "neq-golden.aig" ineq_golden, path "neq-revised.aig" ineq_revised);
          (path "missing.aig" golden, path "eq-revised.aig" revised);
        ]
      in
      Sys.remove (Filename.concat dir "missing.aig");
      let store = Store.create ~dir:(Filename.concat dir "store") () in
      let engine = Engine.default_config in
      let cold = Batch.run ~store ~engine pairs in
      Alcotest.(check int) "total" 3 cold.Batch.total;
      Alcotest.(check int) "cold hits" 0 cold.Batch.hits;
      Alcotest.(check int) "cold proved" 1 cold.Batch.proved;
      Alcotest.(check int) "cold cex" 1 cold.Batch.counterexamples;
      Alcotest.(check int) "cold errors" 1 cold.Batch.errors;
      let results = ref [] in
      let warm =
        Batch.run ~store ~engine ~on_result:(fun r -> results := r :: !results) pairs
      in
      Alcotest.(check int) "warm hits" 2 warm.Batch.hits;
      Alcotest.(check int) "warm proved" 1 warm.Batch.proved;
      Alcotest.(check int) "warm cex" 1 warm.Batch.counterexamples;
      List.iter
        (fun (r : Batch.line_result) ->
          if r.Batch.status = "equivalent" || r.Batch.status = "inequivalent" then
            Alcotest.(check bool) "warm results cached" true r.Batch.cached)
        !results)

let test_batch_fake_clock_timeout () =
  with_temp_dir "cecd-batch-clock" (fun dir ->
      let golden, revised, _ = equivalent_pair () in
      let path name g =
        let p = Filename.concat dir name in
        Aig.Aiger.write_file p g;
        p
      in
      let pairs = [ (path "g.aig" golden, path "r.aig" revised) ] in
      let store = Store.create ~dir:(Filename.concat dir "store") () in
      (* The 5 s per-pair deadline is shorter than one 10 s clock tick,
         so the engine's first deadline check is already past due: the
         pair times out without solving, and the reported latency is a
         pure function of the injected clock. *)
      let clock = ticking_clock ~start:0.0 ~step:10.0 () in
      let results = ref [] in
      let summary =
        Batch.run ~clock ~store ~engine:Engine.default_config ~timeout_ms:5000
          ~on_result:(fun r -> results := r :: !results)
          pairs
      in
      Alcotest.(check int) "timeout counted as undecided" 1 summary.Batch.undecided;
      Alcotest.(check int) "nothing proved" 0 summary.Batch.proved;
      match !results with
      | [ r ] ->
        Alcotest.(check string) "status" "timeout" r.Batch.status;
        Alcotest.(check (float 1e-6)) "latency from the injected clock" 20000.0 r.Batch.ms
      | _ -> Alcotest.fail "expected exactly one result")

(* --- the daemon, end to end over a real socket --- *)

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

let request_exn socket_path line =
  match Server.request ~socket_path line with
  | Ok response -> response
  | Error msg -> Alcotest.failf "request %S failed: %s" line msg

let field_exn name line =
  match Protocol.field name line with
  | Some v -> v
  | None -> Alcotest.failf "response %s lacks %S" line name

let test_server_end_to_end () =
  with_temp_dir "cecd-e2e" (fun dir ->
      let golden, revised, _ = equivalent_pair () in
      let golden_path = Filename.concat dir "golden.aig" in
      let revised_path = Filename.concat dir "revised.aig" in
      Aig.Aiger.write_file golden_path golden;
      Aig.Aiger.write_file revised_path revised;
      let socket_path = Filename.concat dir "cecd.sock" in
      let store_dir = Filename.concat dir "store" in
      let cfg =
        { (Server.default_config ~socket_path ~store_dir) with Server.log = false }
      in
      let server = Domain.spawn (fun () -> Server.run cfg) in
      wait_for_server socket_path;
      let check_line = Printf.sprintf "check %s %s" golden_path revised_path in

      (* Cold: solved, stored. *)
      let r1 = request_exn socket_path check_line in
      Alcotest.(check string) "first solve" "equivalent" (field_exn "status" r1);
      Alcotest.(check string) "first is a miss" "false" (field_exn "cached" r1);

      (* Warm: same pair again, served from the store. *)
      let r2 = request_exn socket_path check_line in
      Alcotest.(check string) "second solve" "equivalent" (field_exn "status" r2);
      Alcotest.(check string) "second is a hit" "true" (field_exn "cached" r2);
      Alcotest.(check string) "keys agree" (field_exn "key" r1) (field_exn "key" r2);

      (* The served certificate is independently reloadable and still
         validates against the normalized pair. *)
      let key =
        match Key.of_hex (field_exn "key" r2) with
        | Some k -> k
        | None -> Alcotest.fail "response key not parsable"
      in
      let audit = Store.create ~dir:store_dir () in
      (match Store.find audit key ~golden ~revised with
      | Some (Cec.Equivalent cert) -> (
        match Certify.validate_against cert golden revised with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "served certificate rejected: %a" Certify.pp_error e)
      | _ -> Alcotest.fail "served certificate not in the store");

      (* Flip a byte of the stored trace behind the server's back: it
         must fall back to re-solving (a miss), then re-cache. *)
      let entry = Store.entry_path audit key in
      let data = read_file entry in
      let pos =
        let rec digit i = if data.[i] >= '0' && data.[i] <= '9' then i else digit (i + 1) in
        digit (String.length data / 2)
      in
      write_file entry (String.mapi (fun i c -> if i = pos then 'x' else c) data);
      let r3 = request_exn socket_path check_line in
      Alcotest.(check string) "corruption re-solves" "false" (field_exn "cached" r3);
      Alcotest.(check string) "still equivalent" "equivalent" (field_exn "status" r3);
      let r4 = request_exn socket_path check_line in
      Alcotest.(check string) "healed entry hits again" "true" (field_exn "cached" r4);

      (* An already-expired deadline is answered with a timeout, not a
         solve. *)
      let r5 = request_exn socket_path (check_line ^ " 0") in
      Alcotest.(check string) "zero deadline times out" "timeout" (field_exn "status" r5);

      (* Errors are reported, not fatal. *)
      let r6 = request_exn socket_path "check /nonexistent.aig /nonexistent.aig" in
      Alcotest.(check bool) "missing netlist is an error" true
        (Protocol.field "error" r6 <> None);
      let r7 = request_exn socket_path "frobnicate" in
      Alcotest.(check bool) "bad request is an error" true (Protocol.field "error" r7 <> None);

      (* Stats reflect the history. *)
      let stats = request_exn socket_path "stats" in
      Alcotest.(check string) "stats store hits" "2" (field_exn "store_hits" stats);
      Alcotest.(check string) "stats corrupt" "1" (field_exn "store_corrupt" stats);
      Alcotest.(check string) "stats timeouts cancelled" "1" (field_exn "cancelled" stats);

      (* Graceful drain on request; the socket disappears. *)
      let bye = request_exn socket_path "shutdown" in
      Alcotest.(check string) "draining acknowledged" "true" (field_exn "draining" bye);
      let snapshot, store_stats = Domain.join server in
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
      (* Four equivalent answers: two solved, two served from the store. *)
      Alcotest.(check int) "server answered equivalent four times" 4 snapshot.Metrics.proved;
      Alcotest.(check int) "server hit twice" 2 snapshot.Metrics.hits;
      Alcotest.(check int) "server solved twice" 2 snapshot.Metrics.misses;
      Alcotest.(check int) "server cancelled once" 1 snapshot.Metrics.cancelled;
      Alcotest.(check int) "store kept one entry" 1 store_stats.Store.entries;
      Alcotest.(check int) "store saw the corruption" 1 store_stats.Store.corrupt)

(* The server's deadline machinery driven entirely by an injected
   clock: every clock read advances time by 1000 s, so a request with a
   generous 60 s budget has always expired by the time a worker picks
   it up — the cancellation path runs deterministically, with no
   sleeping and no real deadline racing.  The same run exercises the
   shutdown-time observability exports. *)
let test_server_fake_clock_deadline () =
  with_temp_dir "cecd-clock" (fun dir ->
      let golden, revised, _ = equivalent_pair () in
      let golden_path = Filename.concat dir "golden.aig" in
      let revised_path = Filename.concat dir "revised.aig" in
      Aig.Aiger.write_file golden_path golden;
      Aig.Aiger.write_file revised_path revised;
      let socket_path = Filename.concat dir "cecd.sock" in
      let stats_path = Filename.concat dir "stats.json" in
      let trace_path = Filename.concat dir "trace.json" in
      let cfg =
        {
          (Server.default_config ~socket_path ~store_dir:(Filename.concat dir "store")) with
          Server.log = false;
          clock = ticking_clock ~start:1.0e6 ~step:1000.0 ();
          stats_out = Some stats_path;
          trace_out = Some trace_path;
        }
      in
      let server = Domain.spawn (fun () -> Server.run cfg) in
      wait_for_server socket_path;
      let r =
        request_exn socket_path (Printf.sprintf "check %s %s 60000" golden_path revised_path)
      in
      Alcotest.(check string) "cancelled without solving" "timeout" (field_exn "status" r);
      ignore (request_exn socket_path "shutdown");
      let snapshot, _ = Domain.join server in
      Alcotest.(check int) "one cancellation" 1 snapshot.Metrics.cancelled;
      Alcotest.(check int) "nothing solved" 0 snapshot.Metrics.proved;
      (* Both exports were written at shutdown, are valid JSON, and the
         stats cover the request metrics. *)
      let stats = read_file stats_path in
      Test_obs.Json.check_valid "server stats export" stats;
      Alcotest.(check bool) "cancellation visible in the export" true
        (let sub = "\"service.cancelled\":1" in
         let n = String.length stats and m = String.length sub in
         let rec find i = i + m <= n && (String.sub stats i m = sub || find (i + 1)) in
         find 0);
      Test_obs.Json.check_valid "server trace export" (read_file trace_path))

let suites =
  [
    ( "service-key",
      [
        Alcotest.test_case "deterministic content addressing" `Quick test_key_deterministic;
        Alcotest.test_case "dead nodes do not perturb keys" `Quick test_key_ignores_dead_nodes;
        Alcotest.test_case "live changes move keys" `Quick test_key_sees_live_changes;
        Alcotest.test_case "of_hex rejects malformed input" `Quick test_key_of_hex_rejects;
      ] );
    ( "service-protocol",
      [
        Alcotest.test_case "request print-parse round-trip" `Quick
          test_protocol_request_roundtrip;
        Alcotest.test_case "malformed requests rejected" `Quick test_protocol_rejects_malformed;
        Alcotest.test_case "flat JSON encode/extract" `Quick test_protocol_json_fields;
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
      ] );
    ( "service-store",
      [
        Alcotest.test_case "equivalent round-trip revalidates" `Quick
          test_store_roundtrip_equivalent;
        Alcotest.test_case "inequivalent round-trip replays" `Quick
          test_store_roundtrip_inequivalent;
        Alcotest.test_case "undecided never stored" `Quick test_store_ignores_undecided;
        Alcotest.test_case "persists across reopen" `Quick test_store_persists_across_reopen;
        Alcotest.test_case "corrupt entry dropped as miss" `Quick test_store_drops_corrupt_entry;
        Alcotest.test_case "paranoid rejects foreign certificate" `Quick
          test_store_paranoid_catches_wrong_proof;
        Alcotest.test_case "version skew is a miss" `Quick test_store_version_skew_is_miss;
        Alcotest.test_case "lost index rebuilt from objects" `Quick
          test_store_rebuilds_lost_index;
        Alcotest.test_case "binary bodies written and revalidated" `Quick
          test_store_writes_binary_bodies;
        Alcotest.test_case "legacy v2 objects still read" `Quick
          test_store_reads_legacy_v2_objects;
        Alcotest.test_case "trace format round-trip" `Quick test_store_trace_format_roundtrip;
        Alcotest.test_case "legacy v1 objects still read" `Quick
          test_store_reads_legacy_v1_objects;
        Alcotest.test_case "LRU eviction under a byte cap" `Quick test_store_lru_eviction;
        Alcotest.test_case "trusting read rejects a torn body" `Quick
          test_store_trusting_read_rejects_torn_body;
        Alcotest.test_case "hits leave the index file alone" `Quick
          test_store_hits_leave_index_alone;
        Alcotest.test_case "LRU follows hits after flush and reopen" `Quick
          test_store_lru_follows_flushed_hits;
      ] );
    ( "service-engine",
      [
        Alcotest.test_case "expired deadline short-circuits" `Quick test_engine_expired_deadline;
        Alcotest.test_case "fake clock expires between rounds" `Quick
          test_engine_deadline_expires_between_rounds;
        Alcotest.test_case "budget exhaustion stays sound" `Quick test_engine_budget_exhaustion;
        Alcotest.test_case "escalation decides small pairs" `Quick
          test_engine_escalation_decides;
      ] );
    ( "service-batch",
      [
        Alcotest.test_case "manifest parsing" `Quick test_batch_manifest_parsing;
        Alcotest.test_case "cold run then warm run" `Quick test_batch_cold_then_warm;
        Alcotest.test_case "fake clock times out deterministically" `Quick
          test_batch_fake_clock_timeout;
      ] );
    ( "service-daemon",
      [
        Alcotest.test_case "full life cycle over a socket" `Quick test_server_end_to_end;
        Alcotest.test_case "fake-clock deadlines and shutdown exports" `Quick
          test_server_fake_clock_deadline;
      ] );
  ]
