(* Tests for the BDD package: canonicity, operations against truth
   tables, agreement with AIG evaluation, counting, and the BDD-based
   equivalence baseline. *)

module M = Bdd.Manager
module Rng = Support.Rng

let test_terminals_and_vars () =
  let t = M.create ~num_vars:3 () in
  Alcotest.(check int) "two terminals" 2 (M.size t);
  let x = M.var t 0 in
  Alcotest.(check int) "var is hash-consed" x (M.var t 0);
  Alcotest.(check int) "low" M.zero (M.low t x);
  Alcotest.(check int) "high" M.one (M.high t x);
  match M.var t 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range variable accepted"

let test_operations_truth_tables () =
  let t = M.create ~num_vars:2 () in
  let a = M.var t 0 and b = M.var t 1 in
  let cases =
    [
      ("and", M.and_ t a b, [| false; false; false; true |]);
      ("or", M.or_ t a b, [| false; true; true; true |]);
      ("xor", M.xor_ t a b, [| false; true; true; false |]);
      ("not a", M.not_ t a, [| true; false; true; false |]);
    ]
  in
  List.iter
    (fun (name, node, table) ->
      Array.iteri
        (fun idx expected ->
          let assignment = [| idx land 1 = 1; idx lsr 1 = 1 |] in
          Alcotest.(check bool) (Printf.sprintf "%s(%d)" name idx) expected
            (M.eval t node assignment))
        table)
    cases

let test_canonicity () =
  let t = M.create ~num_vars:3 () in
  let a = M.var t 0 and b = M.var t 1 and c = M.var t 2 in
  (* Build (a & b) | (a & c) two different ways. *)
  let lhs = M.or_ t (M.and_ t a b) (M.and_ t a c) in
  let rhs = M.and_ t a (M.or_ t b c) in
  Alcotest.(check int) "distribution is canonical" lhs rhs;
  Alcotest.(check int) "double negation" a (M.not_ t (M.not_ t a));
  Alcotest.(check int) "x xor x" M.zero (M.xor_ t lhs lhs);
  Alcotest.(check int) "ite(a,1,0) = a" a (M.ite t a M.one M.zero)

let test_of_aig_matches_eval () =
  let rng = Rng.create 7 in
  for seed = 0 to 30 do
    ignore rng;
    let g =
      Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:5 ~num_ands:30 ~num_outputs:3
    in
    let t = M.create ~num_vars:5 () in
    let outs = M.of_aig t g in
    for mask = 0 to 31 do
      let assignment = Array.init 5 (fun i -> (mask lsr i) land 1 = 1) in
      let expected = Aig.eval g assignment in
      Array.iteri
        (fun o node ->
          if M.eval t node assignment <> expected.(o) then
            Alcotest.failf "seed %d output %d disagrees on %d" seed o mask)
        outs
    done
  done

let test_sat_count () =
  let t = M.create ~num_vars:3 () in
  let a = M.var t 0 and b = M.var t 1 in
  Alcotest.(check (float 1e-9)) "count(a & b) over 3 vars" 2.0 (M.sat_count t (M.and_ t a b));
  Alcotest.(check (float 1e-9)) "count(a | b)" 6.0 (M.sat_count t (M.or_ t a b));
  Alcotest.(check (float 1e-9)) "count(1)" 8.0 (M.sat_count t M.one);
  Alcotest.(check (float 1e-9)) "count(0)" 0.0 (M.sat_count t M.zero)

let test_any_sat () =
  let t = M.create ~num_vars:4 () in
  let a = M.var t 0 and c = M.var t 2 in
  let f = M.and_ t a (M.not_ t c) in
  (match M.any_sat t f with
  | Some assignment -> Alcotest.(check bool) "model satisfies" true (M.eval t f assignment)
  | None -> Alcotest.fail "satisfiable function has no model");
  Alcotest.(check bool) "zero has no model" true (M.any_sat t M.zero = None)

let test_support () =
  let t = M.create ~num_vars:4 () in
  let a = M.var t 0 and c = M.var t 2 in
  Alcotest.(check (list int)) "support" [ 0; 2 ] (M.support t (M.xor_ t a c));
  Alcotest.(check (list int)) "terminal support" [] (M.support t M.one)

let test_node_limit () =
  let t = M.create ~max_nodes:8 ~num_vars:16 () in
  match
    let acc = ref M.one in
    for i = 0 to 15 do
      acc := M.and_ t !acc (M.var t i)
    done;
    !acc
  with
  | exception M.Node_limit -> ()
  | _ -> Alcotest.fail "node limit not enforced"

let test_equiv_adders () =
  let report = Bdd.Equiv.check (Circuits.Adder.ripple_carry 8) (Circuits.Prefix_adder.kogge_stone 8) in
  (match report.Bdd.Equiv.verdict with
  | Bdd.Equiv.Equivalent -> ()
  | Bdd.Equiv.Inequivalent _ -> Alcotest.fail "spurious cex"
  | Bdd.Equiv.Blowup -> Alcotest.fail "unexpected blowup");
  Alcotest.(check bool) "nontrivial BDD" true (report.Bdd.Equiv.bdd_nodes > 10)

let test_equiv_detects_difference () =
  let good = Circuits.Adder.ripple_carry 4 in
  let bad = Circuits.Adder.ripple_carry 4 in
  Aig.set_output bad 0 (Aig.Lit.neg (Aig.output bad 0));
  match (Bdd.Equiv.check good bad).Bdd.Equiv.verdict with
  | Bdd.Equiv.Inequivalent cex ->
    let miter = Aig.Miter.build good bad in
    Alcotest.(check bool) "cex is genuine" true (Aig.eval miter cex).(0)
  | Bdd.Equiv.Equivalent -> Alcotest.fail "difference missed"
  | Bdd.Equiv.Blowup -> Alcotest.fail "unexpected blowup"

let test_equiv_blowup_reported () =
  let report =
    Bdd.Equiv.check ~max_nodes:300 (Circuits.Multiplier.array 6) (Circuits.Multiplier.shift_add 6)
  in
  match report.Bdd.Equiv.verdict with
  | Bdd.Equiv.Blowup -> ()
  | Bdd.Equiv.Equivalent | Bdd.Equiv.Inequivalent _ ->
    Alcotest.fail "expected a blowup under a tiny node cap"

let test_equiv_agrees_with_sat () =
  (* BDD and SAT engines agree on random rewritten pairs. *)
  for seed = 0 to 9 do
    let g =
      Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:6 ~num_ands:40 ~num_outputs:2
    in
    let g' = Circuits.Rewrite.restructure (Rng.create (seed + 100)) g in
    match (Bdd.Equiv.check g g').Bdd.Equiv.verdict with
    | Bdd.Equiv.Equivalent -> ()
    | Bdd.Equiv.Inequivalent _ -> Alcotest.failf "BDD disagrees on seed %d" seed
    | Bdd.Equiv.Blowup -> Alcotest.failf "blowup on tiny instance %d" seed
  done

(* --- differential qcheck: the BDD baseline against the SAT engine --- *)

module Cec = Cec_core.Cec

let qtest ?(count = 40) name prop =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let random_pair seed =
  let num_inputs = 4 + (seed mod 3) in
  let golden =
    Circuits.Random_aig.generate
      (Rng.create (1 + seed))
      ~num_inputs ~num_ands:(15 + (seed mod 30)) ~num_outputs:(1 + (seed mod 2))
  in
  let revised = Circuits.Rewrite.restructure (Rng.create (11 * seed)) golden in
  if seed mod 3 = 1 then begin
    let o = seed mod Aig.num_outputs revised in
    Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o))
  end;
  (golden, revised)

(* Same verdict as the SAT engine on every random pair, and every
   Inequivalent model must replay through [Aig.eval] as a genuine
   distinguishing assignment.  The default node cap must never blow up
   on instances this small. *)
let prop_check_matches_sat =
  qtest "check agrees with the SAT engine" (fun seed ->
      let golden, revised = random_pair seed in
      let bdd = (Bdd.Equiv.check golden revised).Bdd.Equiv.verdict in
      let sat = (Cec.check (Cec.Sweeping Cec_core.Sweep.default_config) golden revised).Cec.verdict in
      match (bdd, sat) with
      | Bdd.Equiv.Equivalent, Cec.Equivalent _ -> true
      | Bdd.Equiv.Inequivalent cex, Cec.Inequivalent _ ->
        (Aig.eval (Aig.Miter.build golden revised) cex).(0)
      | Bdd.Equiv.Blowup, _ ->
        QCheck.Test.fail_reportf "seed %d: blowup under the default cap on a tiny instance" seed
      | _ ->
        QCheck.Test.fail_reportf "seed %d: BDD and SAT verdicts disagree" seed)

(* A starved cap may force Blowup but must never change an answer:
   whatever the tiny-cap run returns, if it is not Blowup it has to be
   the default-cap verdict. *)
let prop_tiny_cap_never_lies =
  qtest ~count:20 "tiny cap blows up or agrees, never lies" (fun seed ->
      let golden, revised = random_pair seed in
      let full = (Bdd.Equiv.check golden revised).Bdd.Equiv.verdict in
      let tiny = (Bdd.Equiv.check ~max_nodes:16 golden revised).Bdd.Equiv.verdict in
      match (tiny, full) with
      | Bdd.Equiv.Blowup, _ -> true
      | Bdd.Equiv.Equivalent, Bdd.Equiv.Equivalent -> true
      | Bdd.Equiv.Inequivalent cex, Bdd.Equiv.Inequivalent _ ->
        (Aig.eval (Aig.Miter.build golden revised) cex).(0)
      | _ -> QCheck.Test.fail_reportf "seed %d: starved cap changed the verdict" seed)

let suites =
  [
    ( "bdd",
      [
        Alcotest.test_case "terminals and vars" `Quick test_terminals_and_vars;
        Alcotest.test_case "operation truth tables" `Quick test_operations_truth_tables;
        Alcotest.test_case "canonicity" `Quick test_canonicity;
        Alcotest.test_case "of_aig matches eval" `Quick test_of_aig_matches_eval;
        Alcotest.test_case "sat_count" `Quick test_sat_count;
        Alcotest.test_case "any_sat" `Quick test_any_sat;
        Alcotest.test_case "support" `Quick test_support;
        Alcotest.test_case "node limit" `Quick test_node_limit;
        Alcotest.test_case "equiv adders" `Quick test_equiv_adders;
        Alcotest.test_case "equiv detects difference" `Quick test_equiv_detects_difference;
        Alcotest.test_case "equiv blowup reported" `Quick test_equiv_blowup_reported;
        Alcotest.test_case "equiv agrees with sat engines" `Quick test_equiv_agrees_with_sat;
        prop_check_matches_sat;
        prop_tiny_cap_never_lies;
      ] );
  ]
