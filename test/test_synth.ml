(* Tests for cut enumeration and the synth library: ISOP exactness and
   irredundancy, SOP materialization, and cut sweeping. *)

module Cut = Aig.Cut
module Isop = Synth.Isop
module Rng = Support.Rng

let qtest name ?(count = 60) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.nat

(* --- cuts --- *)

let test_cut_trivial_and_shapes () =
  let g = Aig.create ~num_inputs:3 in
  let a = Aig.input g 0 and b = Aig.input g 1 and c = Aig.input g 2 in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab c in
  Aig.add_output g abc;
  let cuts = Cut.enumerate g ~k:4 ~max_cuts:8 in
  let n = Aig.Lit.var abc in
  (* Must contain the trivial cut and the {a,b,c} cut. *)
  Alcotest.(check bool) "trivial present" true
    (List.exists (fun c -> c.Cut.leaves = [| n |]) cuts.(n));
  let expected_leaves = [| Aig.Lit.var a; Aig.Lit.var b; Aig.Lit.var c |] in
  let input_cut = List.find_opt (fun cut -> cut.Cut.leaves = expected_leaves) cuts.(n) in
  match input_cut with
  | None -> Alcotest.fail "input cut missing"
  | Some c ->
    (* AND of three variables: truth has exactly one 1 at index 7. *)
    Alcotest.(check int64) "and3 truth" 0x80L c.Cut.truth

let prop_cut_truths_match_simulation =
  (* Every enumerated cut's truth agrees with evaluating the node as a
     function of the cut leaves. *)
  qtest "cut truths agree with evaluation" ~count:30 seed_arb (fun seed ->
      let g =
        Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:4 ~num_ands:20 ~num_outputs:1
      in
      let cuts = Cut.enumerate g ~k:4 ~max_cuts:6 in
      let value = Array.make (Aig.num_nodes g) false in
      let ok = ref true in
      for mask = 0 to 15 do
        (* simulate the whole graph once per input assignment *)
        for i = 0 to 3 do
          value.(Aig.Lit.var (Aig.input g i)) <- (mask lsr i) land 1 = 1
        done;
        let lit_value l = value.(Aig.Lit.var l) <> Aig.Lit.is_neg l in
        Aig.iter_ands g (fun n ->
            value.(n) <- lit_value (Aig.fanin0 g n) && lit_value (Aig.fanin1 g n));
        Aig.iter_ands g (fun n ->
            List.iter
              (fun cut ->
                let leaf_values = Array.map (fun leaf -> value.(leaf)) cut.Cut.leaves in
                if Cut.eval_truth cut leaf_values <> value.(n) then ok := false)
              cuts.(n))
      done;
      !ok)

let test_cut_leaf_bound () =
  let g = Circuits.Adder.ripple_carry 6 in
  let cuts = Cut.enumerate g ~k:3 ~max_cuts:5 in
  Array.iter
    (List.iter (fun c ->
         if Cut.size c > 3 then Alcotest.fail "cut exceeds k";
         let sorted = Array.copy c.Cut.leaves in
         Array.sort compare sorted;
         if sorted <> c.Cut.leaves then Alcotest.fail "leaves not sorted"))
    cuts;
  Array.iteri
    (fun n cs -> if n > 0 && List.length cs > 5 then Alcotest.fail "max_cuts exceeded")
    cuts

(* --- isop --- *)

let prop_isop_exact =
  qtest "isop covers exactly" ~count:300
    (QCheck.make ~print:Int64.to_string (QCheck.Gen.map Int64.of_int QCheck.Gen.int))
    (fun raw ->
      let vars = 4 in
      let truth = Int64.logand raw (Isop.full_mask vars) in
      let cubes = Isop.compute ~vars truth in
      Isop.cover vars cubes = truth)

let prop_isop_irredundant =
  qtest "isop is irredundant" ~count:150
    (QCheck.make ~print:Int64.to_string (QCheck.Gen.map Int64.of_int QCheck.Gen.int))
    (fun raw ->
      let vars = 4 in
      let truth = Int64.logand raw (Isop.full_mask vars) in
      let cubes = Isop.compute ~vars truth in
      (* dropping any single cube must lose coverage *)
      List.for_all
        (fun dropped ->
          let rest = List.filter (fun c -> c <> dropped) cubes in
          Isop.cover vars rest <> truth)
        cubes)

let test_isop_corner_cases () =
  Alcotest.(check int) "constant 0" 0 (List.length (Isop.compute ~vars:3 0L));
  (match Isop.compute ~vars:3 (Isop.full_mask 3) with
  | [ c ] -> Alcotest.(check int) "tautology cube is empty" 0 (Isop.cube_size c)
  | _ -> Alcotest.fail "tautology should be a single empty cube");
  (* single variable *)
  match Isop.compute ~vars:3 0xAAL with
  | [ c ] ->
    Alcotest.(check int) "x0 pos" 1 c.Isop.pos;
    Alcotest.(check int) "x0 neg" 0 c.Isop.neg
  | _ -> Alcotest.fail "x0 should be one cube"

let test_isop_six_vars () =
  (* Round-trip a handful of 6-variable functions. *)
  let rng = Rng.create 12 in
  for _ = 1 to 50 do
    let truth = Rng.int64 rng in
    let cubes = Isop.compute ~vars:6 truth in
    if Isop.cover 6 cubes <> truth then Alcotest.fail "6-var isop not exact"
  done

(* --- resynth --- *)

let prop_resynth_matches_truth =
  qtest "of_truth materializes the function" ~count:200
    (QCheck.make ~print:Int64.to_string (QCheck.Gen.map Int64.of_int QCheck.Gen.int))
    (fun raw ->
      let vars = 4 in
      let truth = Int64.logand raw (Isop.full_mask vars) in
      let g = Aig.create ~num_inputs:vars in
      let leaves = Array.init vars (Aig.input g) in
      let lit = Synth.Resynth.of_truth g leaves truth in
      let ok = ref true in
      for mask = 0 to 15 do
        let assignment = Array.init vars (fun i -> (mask lsr i) land 1 = 1) in
        let expected = Int64.logand (Int64.shift_right_logical truth mask) 1L = 1L in
        if Aig.eval_lit g assignment lit <> expected then ok := false
      done;
      !ok)

(* Full round trip at every width a one-word truth table holds (1-6
   variables): materialize both the direct cover and the complemented
   cover and check both against the truth table bit-for-bit — the
   cheaper-form choice inside [of_truth] must never change the
   function. *)
let prop_resynth_round_trip_all_widths =
  qtest "isop/of_truth round-trips at every width" ~count:200
    (QCheck.make
       ~print:(fun (v, t) -> Printf.sprintf "vars=%d truth=%Ld" v t)
       QCheck.Gen.(pair (int_range 1 6) (map Int64.of_int int)))
    (fun (vars, raw) ->
      let truth = Int64.logand raw (Isop.full_mask vars) in
      let ntruth = Int64.logand (Int64.lognot truth) (Isop.full_mask vars) in
      let g = Aig.create ~num_inputs:vars in
      let leaves = Array.init vars (Aig.input g) in
      let chosen = Synth.Resynth.of_truth g leaves truth in
      let direct = Synth.Resynth.sop_to_aig g leaves (Isop.compute ~vars truth) in
      let complemented = Aig.Lit.neg (Synth.Resynth.sop_to_aig g leaves (Isop.compute ~vars ntruth)) in
      let table lit =
        Int64.logand (Aig.Sim.truth_table g lit).(0) (Isop.full_mask vars)
      in
      table chosen = truth && table direct = truth && table complemented = truth)

(* --- cut sweeping --- *)

let same_function a b =
  let n = Aig.num_inputs a in
  assert (n <= 12);
  let ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment = Array.init n (fun i -> (mask lsr i) land 1 = 1) in
    if Aig.eval a assignment <> Aig.eval b assignment then ok := false
  done;
  !ok

let prop_cutsweep_preserves =
  qtest "cutsweep preserves functions" ~count:40 seed_arb (fun seed ->
      let g =
        Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:5 ~num_ands:40 ~num_outputs:3
      in
      let reduced = Synth.Cutsweep.reduce g in
      same_function g reduced && Aig.num_ands reduced <= Aig.num_ands g)

let test_cutsweep_reduces_inflated () =
  let base = Circuits.Adder.ripple_carry 5 in
  let inflated = Circuits.Rewrite.restructure ~intensity:1.0 (Rng.create 9) base in
  let reduced = Synth.Cutsweep.reduce inflated in
  Alcotest.(check bool) "reduces" true (Aig.num_ands reduced < Aig.num_ands inflated);
  Alcotest.(check bool) "still correct" true (same_function inflated reduced)

let test_cutsweep_vs_fraig () =
  (* Fraig (SAT-backed) is at least as strong as cut sweeping. *)
  let base = Circuits.Datapath.alu 3 in
  let inflated = Circuits.Rewrite.restructure ~intensity:1.0 (Rng.create 31) base in
  let swept = Synth.Cutsweep.reduce inflated in
  let fraiged, _ = Cec_core.Sweep.fraig inflated Cec_core.Sweep.default_config in
  Alcotest.(check bool) "fraig at least as strong" true
    (Aig.num_ands (Aig.cleanup fraiged) <= Aig.num_ands swept)

let base_suites =
  [
    ( "synth",
      [
        Alcotest.test_case "cut shapes" `Quick test_cut_trivial_and_shapes;
        prop_cut_truths_match_simulation;
        Alcotest.test_case "cut bounds" `Quick test_cut_leaf_bound;
        prop_isop_exact;
        prop_isop_irredundant;
        Alcotest.test_case "isop corner cases" `Quick test_isop_corner_cases;
        Alcotest.test_case "isop six vars" `Quick test_isop_six_vars;
        prop_resynth_matches_truth;
        prop_cutsweep_preserves;
        Alcotest.test_case "cutsweep reduces inflated" `Quick test_cutsweep_reduces_inflated;
        Alcotest.test_case "cutsweep vs fraig" `Quick test_cutsweep_vs_fraig;
      ] );
  ]

let prop_cutsweep_npn_preserves =
  qtest "npn cutsweep preserves functions" ~count:40 seed_arb (fun seed ->
      let g =
        Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:5 ~num_ands:40 ~num_outputs:3
      in
      let reduced = Synth.Cutsweep.reduce ~npn:true g in
      same_function g reduced && Aig.num_ands reduced <= Aig.num_ands g)

let test_cutsweep_npn_stronger () =
  (* Aggregated over seeds: NPN matching merges at least as much, and
     strictly more somewhere. *)
  let total_plain = ref 0 and total_npn = ref 0 in
  for seed = 0 to 19 do
    let base =
      Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:6 ~num_ands:60 ~num_outputs:4
    in
    let inflated = Circuits.Rewrite.restructure ~intensity:1.0 (Rng.create (seed + 50)) base in
    total_plain := !total_plain + Aig.num_ands (Synth.Cutsweep.reduce inflated);
    total_npn := !total_npn + Aig.num_ands (Synth.Cutsweep.reduce ~npn:true inflated)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "npn (%d) <= plain (%d)" !total_npn !total_plain)
    true (!total_npn <= !total_plain)

let npn_suites =
  [
    ( "synth-npn",
      [
        prop_cutsweep_npn_preserves;
        Alcotest.test_case "npn matching is stronger" `Quick test_cutsweep_npn_stronger;
      ] );
  ]

let suites = base_suites @ npn_suites
