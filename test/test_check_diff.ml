(* Differential harness over the binary certificate checker.

   [Hint_check] validates both CECB versions in one streaming pass: it
   follows the stored pivots of a hinted (v3) chain and searches for
   the clash variable of an un-hinted (v1) one.  Both encoders share
   one emission plan, so the v1 and v3 bodies of one proof must check
   to the same nodes, chains, steps, deletes and peak live set, and
   only the v3 pass may follow hints.  The materializing [Checker]
   over the ASCII trace of the same proof is the reference: it must
   count the same chains, and any corrupted body the streaming checker
   accepts must decode to a proof it accepts too. *)

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
   table (the production default of 256 would coalesce them). *)
let encode_v3 (cert : Cec.certificate) =
  Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries ~min_shard_nodes:16
    cert.Cec.proof ~root:cert.Cec.root

let encode_v1 (cert : Cec.certificate) =
  Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root

let accepted ~what leaf_ok data =
  match Proof.Hint_check.check ~leaf_ok data with
  | Ok st -> st
  | Error e -> Alcotest.failf "%s: rejected: %a" what Proof.Hint_check.pp_error e

(* --- v1/v3 agreement on valid certificates --- *)

let accept_all ~what (cert : Cec.certificate) =
  let leaf_ok = Cnf.Tseitin.miter_mem cert.Cec.miter in
  let v1 = encode_v1 cert and v3 = encode_v3 cert in
  Alcotest.(check bool) (what ^ ": v3 sniffed as hinted") true (Proof.Binfmt.is_hinted v3);
  Alcotest.(check bool) (what ^ ": v1 not sniffed as hinted") false (Proof.Binfmt.is_hinted v1);
  let s1 = accepted ~what:(what ^ " v1") leaf_ok v1 in
  let s3 = accepted ~what:(what ^ " v3") leaf_ok v3 in
  let same name f = Alcotest.(check int) (what ^ ": v1/v3 " ^ name) (f s1) (f s3) in
  same "nodes" (fun s -> s.Proof.Hint_check.nodes);
  same "chains" (fun s -> s.Proof.Hint_check.chains);
  same "steps" (fun s -> s.Proof.Hint_check.steps);
  same "deletes" (fun s -> s.Proof.Hint_check.deletes);
  same "peak live" (fun s -> s.Proof.Hint_check.peak_live);
  Alcotest.(check int) (what ^ ": v1 is one shard") 1 s1.Proof.Hint_check.shards;
  (* The zero-search pin: on v3 every step followed its hint, on v1
     none had one to follow. *)
  Alcotest.(check int)
    (what ^ ": every v3 step followed a hint")
    s3.Proof.Hint_check.steps s3.Proof.Hint_check.hints_followed;
  Alcotest.(check int) (what ^ ": no v1 step followed a hint") 0
    s1.Proof.Hint_check.hints_followed;
  let expected_steps =
    (Proof.Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Proof.Pstats.resolutions
  in
  Alcotest.(check int) (what ^ ": steps = proof resolutions") expected_steps
    s3.Proof.Hint_check.steps;
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
  Alcotest.(check int) (what ^ ": trace chains = binary chains") s1.Proof.Hint_check.chains
    trace_chains;
  (v1, v3, s3)

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
  let v1, v3, _ = accept_all ~what cert in
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
        let _, v3, s3 = accept_all ~what cert in
        let r = Proof.Binfmt.reader v3 in
        Alcotest.(check bool) (what ^ ": multi-shard body") true
          (Array.length (Proof.Binfmt.shards r) > 1);
        Alcotest.(check int) (what ^ ": every shard checked")
          (Array.length (Proof.Binfmt.shards r))
          s3.Proof.Hint_check.shards
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

let prop_bitflip_fuzz =
  qtest ~count:150 "single-bit corruption accepted only when valid" (fun seed ->
      let data, leaf_ok = Lazy.force fuzz_fixture in
      let pos = seed mod String.length data in
      let bit = 1 lsl (seed / String.length data mod 8) in
      let corrupted =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor bit) else c) data
      in
      (match Proof.Hint_check.check ~leaf_ok corrupted with
      | Error _ -> ()
      | Ok _ -> (
        (* A flip the checker accepts must leave a genuinely valid
           certificate (e.g. one landing in redundant encoding slack;
           there is none today, so this guards the claim): the body
           decodes, and the materializing checker accepts the proof. *)
        match Proof.Binfmt.decode corrupted with
        | exception Failure msg ->
          Alcotest.failf "flip@%d^%d: accepted, but decode fails: %s" pos bit msg
        | proof, root -> (
          match Proof.Checker.check proof ~root ~leaf_ok () with
          | Ok _ -> ()
          | Error e ->
            Alcotest.failf "flip@%d^%d: checker accepted an invalid proof: %a" pos bit
              Proof.Checker.pp_error e)));
      true)

(* Cutting a body short always breaks its byte structure (a v3 shard
   table accounts for every byte), so it is malformed: the CLI's exit
   code 2, never 3. *)
let prop_truncation_fuzz =
  qtest ~count:100 "truncation rejected at every cut point" (fun seed ->
      let data, leaf_ok = Lazy.force fuzz_fixture in
      let cut = seed mod (String.length data - 1) in
      (match Proof.Hint_check.check ~leaf_ok (String.sub data 0 cut) with
      | Ok _ -> Alcotest.failf "cut@%d: truncated certificate accepted" cut
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "cut@%d: malformed" cut)
          true e.Proof.Hint_check.malformed);
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
