(* End-to-end tests for the equivalence-checking core: simulation
   classes, the sweeping engine, certificates and their validation. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Simclass = Cec_core.Simclass
module Certify = Cec_core.Certify

let sweeping = Cec.Sweeping Sweep.default_config

let check_equivalent_both_engines name a b =
  List.iter
    (fun (engine_name, engine) ->
      match (Cec.check engine a b).Cec.verdict with
      | Cec.Equivalent cert -> (
        match Certify.validate_against cert a b with
        | Ok chains ->
          if chains <= 0 then
            Alcotest.failf "%s/%s: certificate verified but has no chains" name engine_name
        | Error e -> Alcotest.failf "%s/%s: %a" name engine_name Certify.pp_error e)
      | Cec.Inequivalent cex ->
        Alcotest.failf "%s/%s: spurious counterexample %s" name engine_name
          (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list cex)))
      | Cec.Undecided -> Alcotest.failf "%s/%s: undecided" name engine_name)
    [ ("monolithic", Cec.Monolithic); ("sweeping", sweeping) ]

let test_simclass_pairs () =
  (* Two structurally different parity circuits: the miter has many
     internally equivalent nodes, which random simulation should group. *)
  let miter =
    Aig.Miter.build (Circuits.Datapath.parity ~tree:true 8) (Circuits.Datapath.parity ~tree:false 8)
  in
  let simc = Simclass.create miter ~words:8 ~seed:3 in
  let classes, members = Simclass.class_stats simc in
  if classes = 0 || members < 4 then
    Alcotest.failf "expected nontrivial candidate classes, got %d classes / %d members" classes
      members

let test_simclass_refinement () =
  (* Two free inputs usually differ under random patterns, but an
     explicit distinguishing pattern must separate them permanently. *)
  let g = Aig.create ~num_inputs:2 in
  Aig.add_output g (Aig.and_ g (Aig.input g 0) (Aig.input g 1));
  let simc = Simclass.create g ~words:1 ~seed:0 in
  Simclass.add_pattern simc [| true; false |];
  let v0 = Aig.Lit.var (Aig.input g 0) and v1 = Aig.Lit.var (Aig.input g 1) in
  Alcotest.(check bool) "inputs separated" true (Simclass.leader simc v0 <> Simclass.leader simc v1
                                                 || v0 = v1)

let test_adders () =
  check_equivalent_both_engines "add4" (Circuits.Adder.ripple_carry 4)
    (Circuits.Adder.carry_lookahead 4);
  check_equivalent_both_engines "add8-select" (Circuits.Adder.ripple_carry 8)
    (Circuits.Adder.carry_select 8)

let test_multipliers () =
  check_equivalent_both_engines "mul3" (Circuits.Multiplier.array 3) (Circuits.Multiplier.shift_add 3)

let test_rewrites_equivalent () =
  let rng = Support.Rng.create 99 in
  let base = Circuits.Datapath.alu 4 in
  check_equivalent_both_engines "alu4-restructure" base
    (Circuits.Rewrite.restructure ~intensity:0.9 rng base);
  check_equivalent_both_engines "alu4-rebalance" base (Circuits.Rewrite.rebalance `Balanced base);
  check_equivalent_both_engines "alu4-dneg" base (Circuits.Rewrite.double_negate base)

let test_inequivalent () =
  (* An adder with a wrong carry: both engines must find a real cex. *)
  let good = Circuits.Adder.ripple_carry 4 in
  let bad = Circuits.Adder.ripple_carry 4 in
  (* Corrupt: complement the carry-out output. *)
  Aig.set_output bad (Aig.num_outputs bad - 1) (Aig.Lit.neg (Aig.output bad (Aig.num_outputs bad - 1)));
  List.iter
    (fun engine ->
      match (Cec.check engine good bad).Cec.verdict with
      | Cec.Inequivalent cex ->
        let miter = Aig.Miter.build good bad in
        let out = (Aig.eval miter cex).(0) in
        Alcotest.(check bool) "cex drives the miter to 1" true out
      | Cec.Equivalent _ -> Alcotest.fail "inequivalent circuits declared equivalent"
      | Cec.Undecided -> Alcotest.fail "undecided")
    [ Cec.Monolithic; sweeping ]

let test_sweep_stats () =
  let miter =
    Aig.Miter.build (Circuits.Adder.ripple_carry 8) (Circuits.Adder.carry_lookahead 8)
  in
  let outcome, stats = Sweep.run miter Sweep.default_config in
  (match outcome with
  | Sweep.Proved { proof; root; miter; _ } -> (
    match Proof.Checker.check proof ~root ~leaf_ok:(Cnf.Tseitin.miter_mem miter) () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "stitched proof rejected: %a" Proof.Checker.pp_error e)
  | Sweep.Disproved _ -> Alcotest.fail "spurious cex"
  | Sweep.Unresolved -> Alcotest.fail "unresolved");
  if stats.Sweep.merges + stats.Sweep.const_merges = 0 then
    Alcotest.fail "sweeping an adder miter should merge nodes";
  if stats.Sweep.lemmas = 0 then Alcotest.fail "expected lemma clauses"

let test_lemma_reuse_off () =
  (* The ablation configuration must still be sound. *)
  let miter =
    Aig.Miter.build (Circuits.Adder.ripple_carry 4) (Circuits.Adder.carry_lookahead 4)
  in
  let cfg = { Sweep.default_config with Sweep.lemma_reuse = false } in
  match Sweep.run miter cfg with
  | Sweep.Proved { proof; root; miter; _ }, _ -> (
    match Proof.Checker.check proof ~root ~leaf_ok:(Cnf.Tseitin.miter_mem miter) () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "proof rejected: %a" Proof.Checker.pp_error e)
  | (Sweep.Disproved _ | Sweep.Unresolved), _ -> Alcotest.fail "expected Proved"

let test_certificate_tamper () =
  (* A certificate checked against another pair's miter must be
     rejected by validate_against: its leaves are not that miter's
     clauses. *)
  let a = Circuits.Adder.ripple_carry 4 and b = Circuits.Adder.carry_lookahead 4 in
  match (Cec.check Cec.Monolithic a b).Cec.verdict with
  | Cec.Equivalent cert -> (
    let other = Circuits.Adder.ripple_carry 5 in
    match Certify.validate_against cert other (Circuits.Adder.carry_lookahead 5) with
    | Ok _ -> Alcotest.fail "tampered certificate accepted"
    | Error _ -> ())
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.fail "setup failed"

let test_suite_small () =
  List.iter
    (fun case ->
      check_equivalent_both_engines case.Circuits.Suite.name (case.Circuits.Suite.golden ())
        (case.Circuits.Suite.revised ()))
    Circuits.Suite.small

(* Every row of the default suite (the experiments' workload) is proved
   by the default sweep, with a certificate that validates against the
   miter rebuilt from the pair. *)
let test_suite_default_swept () =
  List.iter
    (fun case ->
      let name = case.Circuits.Suite.name in
      let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
      match (Cec.check sweeping golden revised).Cec.verdict with
      | Cec.Equivalent cert -> (
        match Certify.validate_against cert golden revised with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: certificate rejected: %a" name Certify.pp_error e)
      | Cec.Inequivalent _ -> Alcotest.failf "%s: spurious counterexample" name
      | Cec.Undecided -> Alcotest.failf "%s: undecided" name)
    Circuits.Suite.default

let base_suites =
  [
    ( "core",
      [
        Alcotest.test_case "simclass groups parity nodes" `Quick test_simclass_pairs;
        Alcotest.test_case "simclass refinement" `Quick test_simclass_refinement;
        Alcotest.test_case "adders equivalent" `Quick test_adders;
        Alcotest.test_case "multipliers equivalent" `Quick test_multipliers;
        Alcotest.test_case "rewrites equivalent" `Quick test_rewrites_equivalent;
        Alcotest.test_case "inequivalent detected" `Quick test_inequivalent;
        Alcotest.test_case "sweep stats and stitched proof" `Quick test_sweep_stats;
        Alcotest.test_case "lemma reuse off" `Quick test_lemma_reuse_off;
        Alcotest.test_case "certificate tampering rejected" `Quick test_certificate_tamper;
        Alcotest.test_case "small suite end-to-end" `Slow test_suite_small;
        Alcotest.test_case "default suite swept and certified" `Slow test_suite_default_swept;
      ] );
  ]

(* --- fraig (functional reduction) --- *)

let test_fraig_reduces_redundant_graph () =
  (* Restructuring inflates a circuit with functionally redundant
     nodes; fraig must shrink it back while preserving functions. *)
  let base = Circuits.Adder.ripple_carry 4 in
  let inflated = Circuits.Rewrite.restructure ~intensity:1.0 (Support.Rng.create 21) base in
  let reduced, stats = Sweep.fraig inflated Sweep.default_config in
  Alcotest.(check bool) "merges happened" true (stats.Sweep.merges + stats.Sweep.const_merges > 0);
  Alcotest.(check bool) "smaller than inflated" true (Aig.num_ands reduced < Aig.num_ands inflated);
  (* function preservation, exhaustively over the 8 inputs *)
  for mask = 0 to 255 do
    let assignment = Array.init 8 (fun i -> (mask lsr i) land 1 = 1) in
    if Aig.eval inflated assignment <> Aig.eval reduced assignment then
      Alcotest.failf "fraig changed the function on input %d" mask
  done

let prop_fraig_preserves_random =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fraig preserves random graphs" ~count:25 arb (fun seed ->
         let g =
           Circuits.Random_aig.generate (Support.Rng.create seed) ~num_inputs:5 ~num_ands:40
             ~num_outputs:3
         in
         let reduced, _ = Sweep.fraig g Sweep.default_config in
         let ok = ref (Aig.num_ands reduced <= Aig.num_ands g) in
         for mask = 0 to 31 do
           let assignment = Array.init 5 (fun i -> (mask lsr i) land 1 = 1) in
           if Aig.eval g assignment <> Aig.eval reduced assignment then ok := false
         done;
         !ok))

let test_fraig_idempotent_on_reduced () =
  let g = Circuits.Adder.ripple_carry 3 in
  let reduced, _ = Sweep.fraig g Sweep.default_config in
  let again, stats = Sweep.fraig reduced Sweep.default_config in
  Alcotest.(check int) "no further reduction" (Aig.num_ands reduced) (Aig.num_ands again);
  ignore stats

(* --- second validation path: DRUP/RUP on small stitched proofs --- *)

let test_stitched_proof_is_rup () =
  let miter =
    Aig.Miter.build (Circuits.Adder.ripple_carry 3) (Circuits.Adder.carry_lookahead 3)
  in
  match Sweep.run miter Sweep.default_config with
  | Sweep.Proved { proof; root; _ }, _ -> (
    let trimmed, troot = Proof.Trim.cone proof ~root in
    let drup = Proof.Export.drup_to_string trimmed ~root:troot in
    match Proof.Rup.check_drup_string (Cnf.Tseitin.miter_formula miter) drup with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "stitched DRUP rejected: %a" Proof.Rup.pp_error e)
  | (Sweep.Disproved _ | Sweep.Unresolved), _ -> Alcotest.fail "expected Proved"

let test_compress_stitched_proof () =
  let miter =
    Aig.Miter.build (Circuits.Adder.ripple_carry 6) (Circuits.Adder.carry_select 6)
  in
  match Sweep.run miter Sweep.default_config with
  | Sweep.Proved { proof; root; miter; _ }, _ -> (
    let kept, original = Proof.Compress.sharing_gain proof ~root in
    Alcotest.(check bool) "sharing cannot grow the proof" true (kept <= original);
    let shared, sroot = Proof.Compress.share proof ~root in
    match Proof.Checker.check shared ~root:sroot ~leaf_ok:(Cnf.Tseitin.miter_mem miter) () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "shared stitched proof rejected: %a" Proof.Checker.pp_error e)
  | (Sweep.Disproved _ | Sweep.Unresolved), _ -> Alcotest.fail "expected Proved"

let test_sweep_deterministic () =
  let miter =
    Aig.Miter.build (Circuits.Adder.ripple_carry 6) (Circuits.Adder.carry_lookahead 6)
  in
  let run () =
    let _, stats = Sweep.run miter Sweep.default_config in
    (stats.Sweep.sat_calls, stats.Sweep.merges, stats.Sweep.lemmas, stats.Sweep.conflicts)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical statistics" true (a = b)

let extra_suites =
  [
    ( "core-extensions",
      [
        Alcotest.test_case "fraig reduces redundancy" `Quick test_fraig_reduces_redundant_graph;
        prop_fraig_preserves_random;
        Alcotest.test_case "fraig idempotent" `Quick test_fraig_idempotent_on_reduced;
        Alcotest.test_case "stitched proof is RUP" `Quick test_stitched_proof_is_rup;
        Alcotest.test_case "compress stitched proof" `Quick test_compress_stitched_proof;
        Alcotest.test_case "sweep deterministic" `Quick test_sweep_deterministic;
      ] );
  ]

(* --- incremental engine mode --- *)

let incremental_cfg = { Sweep.default_config with Sweep.mode = Sweep.Incremental }

let test_incremental_suite () =
  List.iter
    (fun case ->
      let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
      match (Cec.check (Cec.Sweeping incremental_cfg) golden revised).Cec.verdict with
      | Cec.Equivalent cert -> (
        match Certify.validate_against cert golden revised with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s/incremental: %a" case.Circuits.Suite.name Certify.pp_error e)
      | Cec.Inequivalent _ ->
        Alcotest.failf "%s/incremental: spurious cex" case.Circuits.Suite.name
      | Cec.Undecided -> Alcotest.failf "%s/incremental: undecided" case.Circuits.Suite.name)
    Circuits.Suite.small

let test_incremental_agrees_with_fresh () =
  (* Both modes must agree on verdicts, including inequivalence. *)
  let good = Circuits.Adder.ripple_carry 5 in
  let bad = Circuits.Adder.ripple_carry 5 in
  Aig.set_output bad 2 (Aig.Lit.neg (Aig.output bad 2));
  List.iter
    (fun (a, b, expect_eq) ->
      List.iter
        (fun cfg ->
          match (Cec.check (Cec.Sweeping cfg) a b).Cec.verdict with
          | Cec.Equivalent _ -> Alcotest.(check bool) "verdict" expect_eq true
          | Cec.Inequivalent _ -> Alcotest.(check bool) "verdict" expect_eq false
          | Cec.Undecided -> Alcotest.fail "undecided")
        [ Sweep.default_config; incremental_cfg ])
    [
      (good, Circuits.Adder.carry_lookahead 5, true);
      (good, bad, false);
    ]

let test_incremental_fraig () =
  let base = Circuits.Adder.ripple_carry 4 in
  let inflated = Circuits.Rewrite.restructure ~intensity:1.0 (Support.Rng.create 77) base in
  let reduced, stats = Sweep.fraig inflated incremental_cfg in
  Alcotest.(check bool) "reduces" true (Aig.num_ands reduced < Aig.num_ands inflated);
  Alcotest.(check bool) "made sat calls" true (stats.Sweep.sat_calls > 0);
  for mask = 0 to 255 do
    let assignment = Array.init 8 (fun i -> (mask lsr i) land 1 = 1) in
    if Aig.eval inflated assignment <> Aig.eval reduced assignment then
      Alcotest.failf "incremental fraig broke function at %d" mask
  done

let test_incremental_faster_proofs_check () =
  (* The incremental stitched proof is also RUP-checkable. *)
  let miter =
    Aig.Miter.build (Circuits.Adder.ripple_carry 3) (Circuits.Adder.carry_lookahead 3)
  in
  match Sweep.run miter incremental_cfg with
  | Sweep.Proved { proof; root; _ }, _ -> (
    let trimmed, troot = Proof.Trim.cone proof ~root in
    let drup = Proof.Export.drup_to_string trimmed ~root:troot in
    match Proof.Rup.check_drup_string (Cnf.Tseitin.miter_formula miter) drup with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "incremental DRUP rejected: %a" Proof.Rup.pp_error e)
  | (Sweep.Disproved _ | Sweep.Unresolved), _ -> Alcotest.fail "expected Proved"

let incremental_suites =
  [
    ( "core-incremental",
      [
        Alcotest.test_case "small suite certified" `Quick test_incremental_suite;
        Alcotest.test_case "agrees with fresh mode" `Quick test_incremental_agrees_with_fresh;
        Alcotest.test_case "incremental fraig" `Quick test_incremental_fraig;
        Alcotest.test_case "incremental proof is RUP" `Quick test_incremental_faster_proofs_check;
      ] );
  ]

(* --- per-output checking --- *)

let test_check_outputs_localizes () =
  let good = Circuits.Adder.ripple_carry 4 in
  let bad = Circuits.Adder.ripple_carry 4 in
  Aig.set_output bad 2 (Aig.Lit.neg (Aig.output bad 2));
  let reports = Cec.check_outputs sweeping good bad in
  Array.iter
    (fun r ->
      match r.Cec.output_verdict with
      | Cec.Equivalent _ ->
        if r.Cec.output = 2 then Alcotest.fail "corrupted output declared equivalent"
      | Cec.Inequivalent _ ->
        Alcotest.(check int) "only output 2 differs" 2 r.Cec.output
      | Cec.Undecided -> Alcotest.fail "undecided")
    reports

let test_check_outputs_all_equal () =
  let reports =
    Cec.check_outputs Cec.Monolithic (Circuits.Adder.ripple_carry 4)
      (Circuits.Adder.carry_lookahead 4)
  in
  Array.iter
    (fun r ->
      match r.Cec.output_verdict with
      | Cec.Equivalent _ -> ()
      | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.failf "output %d not proved" r.Cec.output)
    reports

(* --- differential fuzzing across all four engines --- *)

let test_differential_engines () =
  (* For random (g, rewritten g) pairs — and corrupted variants — the
     monolithic, fresh-sweeping, incremental-sweeping and BDD engines
     must agree on the verdict. *)
  let rng = Support.Rng.create 2024 in
  for round = 1 to 12 do
    let g =
      Circuits.Random_aig.generate
        (Support.Rng.create (1000 + round))
        ~num_inputs:6 ~num_ands:50 ~num_outputs:3
    in
    let revised = Circuits.Rewrite.restructure (Support.Rng.create (2000 + round)) g in
    let revised =
      if Support.Rng.bool rng then revised
      else begin
        (* corrupt one output *)
        let o = Support.Rng.int rng (Aig.num_outputs revised) in
        (* avoid a no-op when the output is constant-false and its
           complement would also differ... complementing always changes
           the function. *)
        Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o));
        revised
      end
    in
    let sat_verdict engine =
      match (Cec.check engine g revised).Cec.verdict with
      | Cec.Equivalent _ -> true
      | Cec.Inequivalent _ -> false
      | Cec.Undecided -> Alcotest.fail "undecided"
    in
    let v_mono = sat_verdict Cec.Monolithic in
    let v_fresh = sat_verdict sweeping in
    let v_inc = sat_verdict (Cec.Sweeping incremental_cfg) in
    let v_bdd =
      match (Bdd.Equiv.check g revised).Bdd.Equiv.verdict with
      | Bdd.Equiv.Equivalent -> true
      | Bdd.Equiv.Inequivalent _ -> false
      | Bdd.Equiv.Blowup -> Alcotest.fail "bdd blowup on tiny instance"
    in
    if not (v_mono = v_fresh && v_fresh = v_inc && v_inc = v_bdd) then
      Alcotest.failf "round %d: engines disagree (mono=%b fresh=%b inc=%b bdd=%b)" round v_mono
        v_fresh v_inc v_bdd
  done

let differential_suites =
  [
    ( "core-differential",
      [
        Alcotest.test_case "per-output localization" `Quick test_check_outputs_localizes;
        Alcotest.test_case "per-output all equal" `Quick test_check_outputs_all_equal;
        Alcotest.test_case "four engines agree" `Quick test_differential_engines;
      ] );
  ]

let suites = base_suites @ extra_suites @ incremental_suites @ differential_suites
