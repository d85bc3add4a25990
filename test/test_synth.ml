(* Tests for cut enumeration and cut sweeping. *)

module Cut = Aig.Cut
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

let suites =
  [
    ( "synth",
      [
        Alcotest.test_case "cut shapes" `Quick test_cut_trivial_and_shapes;
        prop_cut_truths_match_simulation;
        Alcotest.test_case "cut bounds" `Quick test_cut_leaf_bound;
        prop_cutsweep_preserves;
        Alcotest.test_case "cutsweep reduces inflated" `Quick test_cutsweep_reduces_inflated;
        Alcotest.test_case "cutsweep vs fraig" `Quick test_cutsweep_vs_fraig;
      ] );
  ]
