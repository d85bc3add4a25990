(* Differential harness over the certificate checkers.

   Three independent implementations validate binary certificates: the
   searching streaming checker ([Stream_check]), the search-free hinted
   checker ([Hint_check]) sequentially, and the same checker with its
   shards spread over several domains.  They must accept exactly the
   same certificates — hinted certificates re-encode every proof the
   un-hinted format carries, so any divergence is a checker bug, not a
   prover bug — and reject corrupted ones with the same
   malformed-vs-invalid classification (the CLI's exit-code 2 vs 3
   split).  The sharded run must further be bit-identical to the
   sequential one: same stats on acceptance, same error record on
   rejection, for every job count.  On acceptance the materializing
   [Checker] over the ASCII trace must count the same chains. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module R = Proof.Resolution
module Clause = Cnf.Clause
module Suite = Circuits.Suite

let engine mode = Cec.Sweeping { Sweep.default_config with Sweep.mode }

let cert_of ?(mode = Sweep.Perpair) golden revised =
  match (Cec.check (engine mode) golden revised).Cec.verdict with
  | Cec.Equivalent cert -> Some cert
  | Cec.Inequivalent _ | Cec.Undecided -> None

(* Small shards so even the small fixtures exercise the multi-shard
   machinery (the production default of 256 would coalesce them). *)
let encode_v3 (cert : Cec.certificate) =
  Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries ~min_shard_nodes:16
    cert.Cec.proof ~root:cert.Cec.root

let encode_v1 (cert : Cec.certificate) =
  Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root

let stream leaf_ok data = Proof.Stream_check.check ~leaf_ok data
let hint ?(jobs = 1) leaf_ok data = Proof.Hint_check.check ~leaf_ok ~jobs data

(* --- three-way acceptance agreement on valid certificates --- *)

let accept_all ~what (cert : Cec.certificate) =
  let leaf_ok = Cnf.Tseitin.miter_mem cert.Cec.miter in
  let v1 = encode_v1 cert and v3 = encode_v3 cert in
  Alcotest.(check bool) (what ^ ": v3 sniffed as hinted") true (Proof.Binfmt.is_hinted v3);
  Alcotest.(check bool) (what ^ ": v1 not sniffed as hinted") false (Proof.Binfmt.is_hinted v1);
  let s1 =
    match stream leaf_ok v1 with
    | Ok st -> st
    | Error e ->
      Alcotest.failf "%s: stream checker rejected v1: %a" what Proof.Stream_check.pp_error e
  in
  let s3 =
    match stream leaf_ok v3 with
    | Ok st -> st
    | Error e ->
      Alcotest.failf "%s: stream checker rejected v3: %a" what Proof.Stream_check.pp_error e
  in
  let h1 =
    match hint leaf_ok v3 with
    | Ok st -> st
    | Error e ->
      Alcotest.failf "%s: hinted checker rejected v3: %a" what Proof.Hint_check.pp_error e
  in
  let h4 =
    match hint ~jobs:4 leaf_ok v3 with
    | Ok st -> st
    | Error e ->
      Alcotest.failf "%s: hinted checker (jobs=4) rejected v3: %a" what
        Proof.Hint_check.pp_error e
  in
  (* Both encoders share one emission plan: same nodes, same chains,
     same delete schedule, hence the same streaming peak. *)
  Alcotest.(check int) (what ^ ": same node count") s1.Proof.Stream_check.nodes
    s3.Proof.Stream_check.nodes;
  Alcotest.(check int) (what ^ ": same chain count") s1.Proof.Stream_check.chains
    s3.Proof.Stream_check.chains;
  Alcotest.(check int) (what ^ ": v1/v3 streaming peak identical")
    s1.Proof.Stream_check.peak_live s3.Proof.Stream_check.peak_live;
  Alcotest.(check int) (what ^ ": hinted chains") s3.Proof.Stream_check.chains
    h1.Proof.Hint_check.chains;
  Alcotest.(check int) (what ^ ": hinted nodes") s3.Proof.Stream_check.nodes
    h1.Proof.Hint_check.nodes;
  (* The zero-search pin: every resolution step followed its hint, and
     the step count is exactly the proof's resolution count. *)
  Alcotest.(check int)
    (what ^ ": every step followed a hint")
    h1.Proof.Hint_check.steps h1.Proof.Hint_check.hints_followed;
  let expected_steps =
    (Proof.Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Proof.Pstats.resolutions
  in
  Alcotest.(check int) (what ^ ": steps = proof resolutions") expected_steps
    h1.Proof.Hint_check.steps;
  (* Sharded live sets (local clauses + held imports) never exceed the
     sequential checker's peak. *)
  Alcotest.(check bool)
    (what ^ ": hinted peak within streaming peak")
    true
    (h1.Proof.Hint_check.peak_live <= s3.Proof.Stream_check.peak_live);
  (* Job-count independence of every reported number. *)
  if h1 <> h4 then Alcotest.failf "%s: stats differ between jobs=1 and jobs=4" what;
  (* The ASCII trace of the same trimmed refutation, reparsed and
     checked by the materializing checker, verifies as many chains as
     the binary stream carries. *)
  let trace_chains =
    let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
    let proof, root = Proof.Export.trace_of_string (Proof.Export.trace_to_string trimmed ~root) in
    match Proof.Checker.check proof ~root ~leaf_ok () with
    | Ok chains -> chains
    | Error e -> Alcotest.failf "%s: checker rejected the trace: %a" what Proof.Checker.pp_error e
  in
  Alcotest.(check int) (what ^ ": trace chains = binary chains") s1.Proof.Stream_check.chains
    trace_chains;
  (v1, v3)

(* Hint round-trip: decoding the hinted body re-derives every chain by
   following its stored pivots only; decoding the un-hinted body
   re-derives the same chains by clash search.  Node-for-node the
   results must coincide. *)
let roundtrip_agrees ~what v1 v3 =
  let p1, r1 = Proof.Binfmt.decode v1 in
  let p3, r3 = Proof.Binfmt.decode v3 in
  Alcotest.(check int) (what ^ ": same decoded size") (R.size p1) (R.size p3);
  Alcotest.(check int) (what ^ ": same decoded root") r1 r3;
  for id = 0 to R.size p1 - 1 do
    if not (Clause.equal (R.clause_of p1 id) (R.clause_of p3 id)) then
      Alcotest.failf "%s: node %d: hinted derivation %s <> searched %s" what id
        (Clause.to_dimacs_string (R.clause_of p3 id))
        (Clause.to_dimacs_string (R.clause_of p1 id))
  done

let differential ~what (cert : Cec.certificate) =
  let v1, v3 = accept_all ~what cert in
  roundtrip_agrees ~what v1 v3

(* --- fixed golden circuits, all prover shapes --- *)

let test_golden_circuits () =
  List.iter
    (fun (case : Suite.case) ->
      List.iter
        (fun mode ->
          let golden = case.Suite.golden () and revised = case.Suite.revised () in
          match cert_of ~mode golden revised with
          | Some cert ->
            differential ~what:(case.Suite.name ^ "/" ^ Sweep.mode_to_string mode) cert
          | None -> Alcotest.failf "%s: no certificate" case.Suite.name)
        [ Sweep.Perpair; Sweep.Incremental ])
    Suite.small

let test_partitioned_certificate () =
  (* A multi-output multiplier pair, swept in both modes: each refuted
     query closes a section, so the sweep records the boundaries the
     shard table is built on and the hinted body splits into several
     shards. *)
  let golden = Circuits.Multiplier.array 4 in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create 11) golden in
  List.iter
    (fun mode ->
      let what = "mul4/" ^ Sweep.mode_to_string mode in
      match cert_of ~mode golden revised with
      | Some cert ->
        Alcotest.(check bool) (what ^ ": sweep recorded boundaries") true
          (Array.length cert.Cec.boundaries > 0);
        let _, v3 = accept_all ~what cert in
        let r = Proof.Binfmt.reader v3 in
        Alcotest.(check bool) (what ^ ": multi-shard body") true
          (Array.length (Proof.Binfmt.shards r) > 1)
      | None -> Alcotest.failf "%s: sweep did not prove equivalence" what)
    [ Sweep.Perpair; Sweep.Incremental ]

(* --- random AIG pairs (qcheck) --- *)

let qtest ?(count = 20) name prop =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let random_equivalent_pair seed =
  let num_inputs = 4 + (seed mod 3) in
  let golden =
    Circuits.Random_aig.generate
      (Support.Rng.create (1 + seed))
      ~num_inputs
      ~num_ands:(20 + (seed mod 30))
      ~num_outputs:(1 + (seed mod 2))
  in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create (7 * seed)) golden in
  (golden, revised)

let prop_random_pairs_agree =
  qtest "checkers agree on random certificates" (fun seed ->
      let golden, revised = random_equivalent_pair seed in
      let mode = if seed mod 2 = 0 then Sweep.Perpair else Sweep.Incremental in
      (match cert_of ~mode golden revised with
      | Some cert -> differential ~what:(Printf.sprintf "random-%d" seed) cert
      | None -> ());
      true)

(* --- corruption fuzzing --- *)

(* One fixed hinted certificate with several shards and plenty of
   records, plus its miter's leaf test. *)
let fuzz_fixture =
  lazy
    (let case = Option.get (Suite.find "mul3-arr-sa") in
     match cert_of (case.Suite.golden ()) (case.Suite.revised ()) with
     | Some cert -> (encode_v3 cert, Cnf.Tseitin.miter_mem cert.Cec.miter)
     | None -> failwith "fuzz setup failed")

(* All three verdicts on one body, with the sharded checker pinned
   bit-identical to the sequential one (error record included — the
   join always checks every shard and picks a deterministic failure, so
   rejection must not depend on the job count either). *)
let verdicts data =
  let _, leaf_ok = Lazy.force fuzz_fixture in
  let s = stream leaf_ok data in
  let h1 = hint leaf_ok data in
  let h4 = hint ~jobs:4 leaf_ok data in
  (match (h1, h4) with
  | Ok a, Ok b when a = b -> ()
  | Error a, Error b when a = b -> ()
  | _ -> Alcotest.fail "hinted checker diverges between jobs=1 and jobs=4");
  (s, h1)

(* The CLI maps [malformed] to exit 2 and any other rejection to exit
   3; classification agreement preserves that split across checkers. *)
let check_agreement ~what s h =
  match (s, h) with
  | Ok _, Ok _ -> ()
  | Error se, Error he ->
    Alcotest.(check bool)
      (what ^ ": same malformed classification")
      se.Proof.Stream_check.malformed he.Proof.Hint_check.malformed
  | Ok _, Error he ->
    Alcotest.failf "%s: stream accepts but hinted rejects: %a" what Proof.Hint_check.pp_error he
  | Error se, Ok _ ->
    Alcotest.failf "%s: hinted accepts but stream rejects: %a" what Proof.Stream_check.pp_error
      se

let prop_bitflip_fuzz =
  qtest ~count:150 "single-bit corruption classified identically" (fun seed ->
      let data, leaf_ok = Lazy.force fuzz_fixture in
      let pos = seed mod String.length data in
      let bit = 1 lsl (seed / String.length data mod 8) in
      let corrupted =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor bit) else c) data
      in
      let s, h = verdicts corrupted in
      check_agreement ~what:(Printf.sprintf "flip@%d^%d" pos bit) s h;
      (match (s, h) with
      | Ok _, Ok _ ->
        (* A flip that still passes every checker must be a genuinely
           valid certificate (e.g. the flip landed in redundant
           encoding slack — there is none today, so this guards the
           claim). *)
        let proof, root = Proof.Binfmt.decode corrupted in
        (match Proof.Checker.check proof ~root ~leaf_ok () with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "flip@%d^%d: checkers accepted an invalid proof: %a" pos bit
            Proof.Checker.pp_error e)
      | _ -> ());
      true)

let prop_truncation_fuzz =
  qtest ~count:100 "truncation rejected at every cut point" (fun seed ->
      let data, _ = Lazy.force fuzz_fixture in
      let cut = seed mod (String.length data - 1) in
      let s, h = verdicts (String.sub data 0 cut) in
      (match (s, h) with
      | Ok _, _ | _, Ok _ -> Alcotest.failf "cut@%d: truncated certificate accepted" cut
      | Error _, Error _ -> check_agreement ~what:(Printf.sprintf "cut@%d" cut) s h);
      true)

let suites =
  [
    ( "check-differential",
      [
        Alcotest.test_case "golden circuits, both sweep modes" `Quick test_golden_circuits;
        Alcotest.test_case "partitioned certificate round-trip" `Quick
          test_partitioned_certificate;
      ] );
    ( "qcheck-check-differential",
      [ prop_random_pairs_agree; prop_bitflip_fuzz; prop_truncation_fuzz ] );
  ]
