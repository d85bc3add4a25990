(* Tests for the proof package: the resolution store, the checker's
   rejection behaviour, assumption lifting, trimming, statistics and
   the trace format. *)

module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Lit = Aig.Lit
module R = Proof.Resolution

let lit v = Lit.of_var v
let nlit v = Lit.neg (Lit.of_var v)

(* A tiny hand-built refutation of {(a b), (~a b), (a ~b), (~a ~b)}. *)
let hand_refutation () =
  let proof = R.create () in
  let l1 = R.add_leaf proof (Clause.of_list [ lit 0; lit 1 ]) in
  let l2 = R.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let l3 = R.add_leaf proof (Clause.of_list [ lit 0; nlit 1 ]) in
  let l4 = R.add_leaf proof (Clause.of_list [ nlit 0; nlit 1 ]) in
  let b = R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| l1; l2 |] ~pivots:[| 0 |] in
  let nb = R.add_chain proof ~clause:(Clause.singleton (nlit 1)) ~antecedents:[| l3; l4 |] ~pivots:[| 0 |] in
  let empty = R.add_chain proof ~clause:Clause.empty ~antecedents:[| b; nb |] ~pivots:[| 1 |] in
  (proof, empty)

let formula_of_leaves () =
  let f = Formula.create () in
  List.iter
    (fun lits -> ignore (Formula.add_list f lits))
    [ [ lit 0; lit 1 ]; [ nlit 0; lit 1 ]; [ lit 0; nlit 1 ]; [ nlit 0; nlit 1 ] ];
  f

let test_store_basics () =
  let proof, root = hand_refutation () in
  Alcotest.(check int) "7 nodes" 7 (R.size proof);
  Alcotest.(check bool) "root clause empty" true (Clause.is_empty (R.clause_of proof root));
  let reach = R.reachable proof ~root in
  Alcotest.(check int) "all reachable" 7 (Array.length reach);
  (* hash-consing of leaves *)
  let again = R.add_leaf proof (Clause.of_list [ lit 1; lit 0 ]) in
  Alcotest.(check int) "leaf dedup" 0 again

let test_chain_validation () =
  let proof = R.create () in
  let l = R.add_leaf proof (Clause.singleton (lit 0)) in
  (match R.add_chain proof ~clause:Clause.empty ~antecedents:[| l |] ~pivots:[||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-antecedent chain accepted");
  match R.add_chain proof ~clause:Clause.empty ~antecedents:[| l; 99 |] ~pivots:[| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dangling antecedent accepted"

let test_checker_accepts () =
  let proof, root = hand_refutation () in
  match Proof.Checker.check proof ~root ~formula:(formula_of_leaves ()) () with
  | Ok chains -> Alcotest.(check int) "three chains" 3 chains
  | Error e -> Alcotest.failf "rejected: %a" Proof.Checker.pp_error e

let test_checker_rejects_wrong_result () =
  let proof = R.create () in
  let l1 = R.add_leaf proof (Clause.of_list [ lit 0; lit 1 ]) in
  let l2 = R.add_leaf proof (Clause.of_list [ nlit 0 ]) in
  (* Claim (empty) but the resolvent is (b). *)
  let bad = R.add_chain proof ~clause:Clause.empty ~antecedents:[| l1; l2 |] ~pivots:[| 0 |] in
  match Proof.Checker.check proof ~root:bad () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong chain accepted"

let test_checker_rejects_bad_pivot () =
  let proof = R.create () in
  let l1 = R.add_leaf proof (Clause.of_list [ lit 0; lit 1 ]) in
  let l2 = R.add_leaf proof (Clause.of_list [ nlit 0 ]) in
  let bad =
    R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| l1; l2 |] ~pivots:[| 1 |]
  in
  match Proof.Checker.check proof ~root:bad () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad pivot accepted"

let test_checker_rejects_foreign_leaf () =
  let proof, root = hand_refutation () in
  let f = Formula.create () in
  ignore (Formula.add_list f [ lit 0; lit 1 ]);
  match Proof.Checker.check proof ~root ~formula:f () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign leaves accepted"

let test_checker_rejects_leftover_assumption () =
  let proof = R.create () in
  let a = R.add_leaf ~assumption:true proof (Clause.singleton (lit 0)) in
  let na = R.add_leaf proof (Clause.singleton (nlit 0)) in
  let root = R.add_chain proof ~clause:Clause.empty ~antecedents:[| a; na |] ~pivots:[| 0 |] in
  match Proof.Checker.check proof ~root () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "assumption leaf accepted in final proof"

let test_checker_rejects_nonempty_root () =
  let proof = R.create () in
  let l = R.add_leaf proof (Clause.singleton (lit 0)) in
  match Proof.Checker.check proof ~root:l () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-empty root accepted"

let test_check_derivation () =
  let proof = R.create () in
  let l1 = R.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let l2 = R.add_leaf proof (Clause.of_list [ nlit 1; lit 2 ]) in
  let d =
    R.add_chain proof
      ~clause:(Clause.of_list [ nlit 0; lit 2 ])
      ~antecedents:[| l1; l2 |] ~pivots:[| 1 |]
  in
  (match
     Proof.Checker.check_derivation proof ~root:d ~expected:(Clause.of_list [ nlit 0; lit 2 ]) ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid derivation rejected: %a" Proof.Checker.pp_error e);
  match
    Proof.Checker.check_derivation proof ~root:d ~expected:(Clause.singleton (lit 2)) ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-subsuming derivation accepted"

let test_lift_simple () =
  (* Refutation of {(~a b)} + assumptions {a, ~b}: lifting must drop the
     assumption leaves and derive a sub-clause of (~a b). *)
  let proof = R.create () in
  let impl = R.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let a = R.add_leaf ~assumption:true proof (Clause.singleton (lit 0)) in
  let nb = R.add_leaf ~assumption:true proof (Clause.singleton (nlit 1)) in
  let step1 =
    R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| impl; a |] ~pivots:[| 0 |]
  in
  let root = R.add_chain proof ~clause:Clause.empty ~antecedents:[| step1; nb |] ~pivots:[| 1 |] in
  let lifted_root, lifted = Proof.Lift.refutation ~scratch:(Proof.Lift.scratch ()) proof ~root in
  Alcotest.(check bool) "subsumes (~a b)" true
    (Clause.subsumes lifted (Clause.of_list [ nlit 0; lit 1 ]));
  Alcotest.(check bool) "no assumptions reachable" true
    (Array.for_all (fun id -> not (R.is_assumption proof id)) (R.reachable proof ~root:lifted_root))

let test_lift_requires_empty_root () =
  let proof = R.create () in
  let l = R.add_leaf proof (Clause.singleton (lit 0)) in
  match Proof.Lift.refutation ~scratch:(Proof.Lift.scratch ()) proof ~root:l with
  | exception Proof.Lift.Lift_error _ -> ()
  | _ -> Alcotest.fail "non-refutation accepted"

let test_lift_no_assumptions_is_identity () =
  let proof, root = hand_refutation () in
  let lifted_root, lifted = Proof.Lift.refutation ~scratch:(Proof.Lift.scratch ()) proof ~root in
  Alcotest.(check int) "same root" root lifted_root;
  Alcotest.(check bool) "still empty" true (Clause.is_empty lifted)

let test_trim () =
  let proof, root = hand_refutation () in
  (* Add unreachable junk. *)
  let j1 = R.add_leaf proof (Clause.singleton (lit 5)) in
  let j2 = R.add_leaf proof (Clause.singleton (nlit 5)) in
  ignore (R.add_chain proof ~clause:Clause.empty ~antecedents:[| j1; j2 |] ~pivots:[| 5 |]);
  let reachable, total = Proof.Trim.sizes proof ~root in
  Alcotest.(check int) "reachable" 7 reachable;
  Alcotest.(check int) "total" 10 total;
  let trimmed, root' = Proof.Trim.cone proof ~root in
  Alcotest.(check int) "trimmed size" 7 (R.size trimmed);
  match Proof.Checker.check trimmed ~root:root' ~formula:(formula_of_leaves ()) () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trimmed proof rejected: %a" Proof.Checker.pp_error e

let test_stats () =
  let proof, root = hand_refutation () in
  let s = Proof.Pstats.of_root proof ~root in
  Alcotest.(check int) "leaves" 4 s.Proof.Pstats.leaves;
  Alcotest.(check int) "chains" 3 s.Proof.Pstats.chains;
  Alcotest.(check int) "resolutions" 3 s.Proof.Pstats.resolutions;
  Alcotest.(check int) "depth" 2 s.Proof.Pstats.depth;
  Alcotest.(check int) "literals: (b) + (~b) + ()" 2 s.Proof.Pstats.literals

let test_stats_dedupes_ids () =
  (* A leaf shared by two chains, handed to [of_ids] through an id
     array that also repeats every id: each node must be counted
     exactly once (the pre-fix code counted per occurrence). *)
  let proof = R.create () in
  let shared = R.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let a = R.add_leaf proof (Clause.singleton (lit 0)) in
  let nb = R.add_leaf proof (Clause.singleton (nlit 1)) in
  let s1 =
    R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| shared; a |]
      ~pivots:[| 0 |]
  in
  let s2 =
    R.add_chain proof ~clause:(Clause.singleton (nlit 0)) ~antecedents:[| shared; nb |]
      ~pivots:[| 1 |]
  in
  let ids = [| shared; a; nb; s1; s2 |] in
  let doubled = Array.append ids ids in
  let once = Proof.Pstats.of_ids proof ids in
  let twice = Proof.Pstats.of_ids proof doubled in
  Alcotest.(check int) "leaves counted once" 3 once.Proof.Pstats.leaves;
  Alcotest.(check int) "chains counted once" 2 once.Proof.Pstats.chains;
  Alcotest.(check int) "resolutions counted once" 2 once.Proof.Pstats.resolutions;
  Alcotest.(check bool) "duplicated ids change nothing" true (once = twice);
  (* [of_proof] covers the same five nodes, so it must agree. *)
  Alcotest.(check bool) "of_proof agrees" true (Proof.Pstats.of_proof proof = once)

let test_trace_roundtrip () =
  let proof, root = hand_refutation () in
  let text = Proof.Export.trace_to_string proof ~root in
  let proof', root' = Proof.Export.trace_of_string text in
  Alcotest.(check int) "same node count" 7 (R.size proof');
  match Proof.Checker.check proof' ~root:root' ~formula:(formula_of_leaves ()) () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reparsed proof rejected: %a" Proof.Checker.pp_error e

let test_drup_export () =
  let proof, root = hand_refutation () in
  let text = Proof.Export.drup_to_string proof ~root in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "one line per chain" 3 (List.length lines);
  Alcotest.(check string) "last line is the empty clause" "0"
    (String.trim (List.nth lines 2))

let test_import_stitches_lemma () =
  (* Simulate the sweeping pattern: derive a lemma in a query proof,
     import it into a global proof, then use it in a later import. *)
  let global = R.create () in
  let f = Formula.create () in
  ignore (Formula.add_list f [ nlit 0; lit 1 ]);
  ignore (Formula.add_list f [ nlit 1; lit 2 ]);
  ignore (Formula.add_list f [ lit 0 ]);
  ignore (Formula.add_list f [ nlit 2 ]);
  (* Query proof 1 derives the lemma (~a c) from the first two clauses. *)
  let q1 = R.create () in
  let c1 = R.add_leaf q1 (Clause.of_list [ nlit 0; lit 1 ]) in
  let c2 = R.add_leaf q1 (Clause.of_list [ nlit 1; lit 2 ]) in
  let lemma_clause = Clause.of_list [ nlit 0; lit 2 ] in
  let d = R.add_chain q1 ~clause:lemma_clause ~antecedents:[| c1; c2 |] ~pivots:[| 1 |] in
  let lemma_global =
    R.import global q1 ~root:d ~map_leaf:(fun _ c ->
        assert (Formula.mem f c);
        R.add_leaf global c)
  in
  (* Query proof 2 refutes {lemma, (a), (~c)} using the lemma as leaf. *)
  let q2 = R.create () in
  let lem = R.add_leaf q2 lemma_clause in
  let a = R.add_leaf q2 (Clause.singleton (lit 0)) in
  let nc = R.add_leaf q2 (Clause.singleton (nlit 2)) in
  let s1 = R.add_chain q2 ~clause:(Clause.singleton (lit 2)) ~antecedents:[| lem; a |] ~pivots:[| 0 |] in
  let e = R.add_chain q2 ~clause:Clause.empty ~antecedents:[| s1; nc |] ~pivots:[| 2 |] in
  let root =
    R.import global q2 ~root:e ~map_leaf:(fun _ c ->
        if Clause.equal c lemma_clause then lemma_global
        else begin
          assert (Formula.mem f c);
          R.add_leaf global c
        end)
  in
  match Proof.Checker.check global ~root ~formula:f () with
  | Ok chains -> Alcotest.(check int) "stitched chains" 3 chains
  | Error err -> Alcotest.failf "stitched proof rejected: %a" Proof.Checker.pp_error err

(* Property: every proof the CDCL solver emits on random UNSAT
   formulas passes the checker AND trims to a checkable proof AND
   round-trips through the trace format. *)
let prop_solver_proofs_roundtrip =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"solver proofs trim and roundtrip" ~count:60 arb (fun seed ->
         let rng = Support.Rng.create seed in
         let nvars = 4 + Support.Rng.int rng 6 in
         let f = Formula.create () in
         Formula.ensure_vars f nvars;
         for _ = 1 to int_of_float (4.5 *. float_of_int nvars) do
           let rec pick acc k =
             if k = 0 then acc
             else
               let v = Support.Rng.int rng nvars in
               if List.exists (fun l -> Lit.var l = v) acc then pick acc k
               else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
           in
           ignore (Formula.add f (Clause.of_list (pick [] 3)))
         done;
         let s = Sat.Solver.create () in
         Sat.Solver.add_formula s f;
         match Sat.Solver.solve s with
         | Sat.Solver.Sat _ | Sat.Solver.Unknown | Sat.Solver.Unsat_assuming _ -> true
         | Sat.Solver.Unsat root ->
           let proof = Sat.Solver.proof s in
           let trimmed, root' = Proof.Trim.cone proof ~root in
           let text = Proof.Export.trace_to_string trimmed ~root:root' in
           let proof'', root'' = Proof.Export.trace_of_string text in
           (match Proof.Checker.check proof'' ~root:root'' ~formula:f () with
           | Ok _ -> true
           | Error _ -> false)))

let base_suites =
  [
    ( "proof",
      [
        Alcotest.test_case "store basics" `Quick test_store_basics;
        Alcotest.test_case "chain validation" `Quick test_chain_validation;
        Alcotest.test_case "checker accepts" `Quick test_checker_accepts;
        Alcotest.test_case "checker rejects wrong result" `Quick test_checker_rejects_wrong_result;
        Alcotest.test_case "checker rejects bad pivot" `Quick test_checker_rejects_bad_pivot;
        Alcotest.test_case "checker rejects foreign leaf" `Quick test_checker_rejects_foreign_leaf;
        Alcotest.test_case "checker rejects leftover assumption" `Quick
          test_checker_rejects_leftover_assumption;
        Alcotest.test_case "checker rejects non-empty root" `Quick test_checker_rejects_nonempty_root;
        Alcotest.test_case "check_derivation" `Quick test_check_derivation;
        Alcotest.test_case "lift simple" `Quick test_lift_simple;
        Alcotest.test_case "lift requires refutation" `Quick test_lift_requires_empty_root;
        Alcotest.test_case "lift without assumptions" `Quick test_lift_no_assumptions_is_identity;
        Alcotest.test_case "trim" `Quick test_trim;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "stats dedupe ids" `Quick test_stats_dedupes_ids;
        Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
        Alcotest.test_case "drup export" `Quick test_drup_export;
        Alcotest.test_case "import stitches lemmas" `Quick test_import_stitches_lemma;
        prop_solver_proofs_roundtrip;
      ] );
  ]

(* --- RUP checking --- *)

let test_rup_simple () =
  let f = formula_of_leaves () in
  (* formula_of_leaves is unsatisfiable, so derived units are RUP. *)
  Alcotest.(check bool) "derived unit is RUP" true
    (Proof.Rup.check_clause f [] (Clause.singleton (lit 1)));
  (* Against a satisfiable formula, non-consequences are not RUP. *)
  let sat_f = Formula.create () in
  ignore (Formula.add_list sat_f [ nlit 0; lit 1 ]);
  ignore (Formula.add_list sat_f [ nlit 1; lit 2 ]);
  Alcotest.(check bool) "implied clause is RUP" true
    (Proof.Rup.check_clause sat_f [] (Clause.of_list [ nlit 0; lit 2 ]));
  Alcotest.(check bool) "non-consequence is not RUP" false
    (Proof.Rup.check_clause sat_f [] (Clause.singleton (lit 0)))

let test_rup_stream () =
  let f = formula_of_leaves () in
  let stream = [ Clause.singleton (lit 1); Clause.singleton (nlit 1); Clause.empty ] in
  (match Proof.Rup.check_stream f stream with
  | Ok n -> Alcotest.(check int) "three lemmas" 3 n
  | Error e -> Alcotest.failf "valid stream rejected: %a" Proof.Rup.pp_error e);
  (* A stream not ending in the empty clause is rejected. *)
  (match Proof.Rup.check_stream f [ Clause.singleton (lit 1) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete stream accepted");
  (* A non-RUP step is rejected (satisfiable base formula). *)
  let sat_f = Formula.create () in
  ignore (Formula.add_list sat_f [ nlit 0; lit 1 ]);
  match Proof.Rup.check_stream sat_f [ Clause.singleton (lit 0); Clause.empty ] with
  | Error e -> Alcotest.(check int) "fails at step 0" 0 e.Proof.Rup.index
  | Ok _ -> Alcotest.fail "non-RUP step accepted"

let test_rup_validates_drup_export () =
  let proof, root = hand_refutation () in
  let drup = Proof.Export.drup_to_string proof ~root in
  match Proof.Rup.check_drup_string (formula_of_leaves ()) drup with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "exported DRUP rejected: %a" Proof.Rup.pp_error e

let prop_solver_drup_is_rup =
  (* The DRUP stream of every solver refutation passes the RUP
     checker — a second validation path fully independent of the
     resolution checker. *)
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"solver DRUP streams are RUP" ~count:30 arb (fun seed ->
         let rng = Support.Rng.create (seed + 1000) in
         let nvars = 4 + Support.Rng.int rng 4 in
         let f = Formula.create () in
         Formula.ensure_vars f nvars;
         for _ = 1 to int_of_float (4.6 *. float_of_int nvars) do
           let rec pick acc k =
             if k = 0 then acc
             else
               let v = Support.Rng.int rng nvars in
               if List.exists (fun l -> Lit.var l = v) acc then pick acc k
               else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
           in
           ignore (Formula.add f (Clause.of_list (pick [] 3)))
         done;
         let s = Sat.Solver.create () in
         Sat.Solver.add_formula s f;
         match Sat.Solver.solve s with
         | Sat.Solver.Sat _ | Sat.Solver.Unknown | Sat.Solver.Unsat_assuming _ -> true
         | Sat.Solver.Unsat root -> (
           let trimmed, troot = Proof.Trim.cone (Sat.Solver.proof s) ~root in
           let drup = Proof.Export.drup_to_string trimmed ~root:troot in
           match Proof.Rup.check_drup_string f drup with
           | Ok _ -> true
           | Error _ -> false)))

(* --- compression --- *)

let test_compress_shares_duplicates () =
  (* Derive the unit (b) twice (same resolvent, different antecedent
     order) and make both copies reachable from one refutation. *)
  let proof = R.create () in
  let l1 = R.add_leaf proof (Clause.of_list [ lit 0; lit 1 ]) in
  let l2 = R.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let l3 = R.add_leaf proof (Clause.of_list [ lit 0; nlit 1 ]) in
  let l4 = R.add_leaf proof (Clause.of_list [ nlit 0; nlit 1 ]) in
  let b1 = R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| l1; l2 |] ~pivots:[| 0 |] in
  let b2 = R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| l2; l1 |] ~pivots:[| 0 |] in
  (* (a ~b) [1] (b) -> (a) [0] (~a ~b) -> (~b) [1] (b) -> empty *)
  let root =
    R.add_chain proof ~clause:Clause.empty ~antecedents:[| l3; b1; l4; b2 |] ~pivots:[| 1; 0; 1 |]
  in
  let kept, original = Proof.Compress.sharing_gain proof ~root in
  Alcotest.(check int) "original cone" 7 original;
  Alcotest.(check int) "one duplicate shared" 6 kept;
  let shared, sroot = Proof.Compress.share proof ~root in
  match Proof.Checker.check shared ~root:sroot () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shared proof rejected: %a" Proof.Checker.pp_error e

let test_compress_preserves_validity_on_solver_proofs () =
  let f = formula_of_leaves () in
  let s = Sat.Solver.create () in
  Sat.Solver.add_formula s f;
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat root -> (
    let shared, sroot = Proof.Compress.share (Sat.Solver.proof s) ~root in
    match Proof.Checker.check shared ~root:sroot ~formula:f () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "shared proof rejected: %a" Proof.Checker.pp_error e)
  | Sat.Solver.Sat _ | Sat.Solver.Unknown | Sat.Solver.Unsat_assuming _ ->
    Alcotest.fail "expected UNSAT"

let extra_suites =
  [
    ( "proof-rup",
      [
        Alcotest.test_case "rup simple" `Quick test_rup_simple;
        Alcotest.test_case "rup stream" `Quick test_rup_stream;
        Alcotest.test_case "rup validates drup export" `Quick test_rup_validates_drup_export;
        prop_solver_drup_is_rup;
        Alcotest.test_case "compress shares duplicates" `Quick test_compress_shares_duplicates;
        Alcotest.test_case "compress on solver proofs" `Quick
          test_compress_preserves_validity_on_solver_proofs;
      ] );
  ]

(* --- Craig interpolation --- *)

let solve_partition a b =
  (* Refute A ∧ B with the proof-logging solver. *)
  let s = Sat.Solver.create () in
  Sat.Solver.add_formula s a;
  Sat.Solver.add_formula s b;
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat root -> Some (Sat.Solver.proof s, root)
  | Sat.Solver.Sat _ | Sat.Solver.Unknown | Sat.Solver.Unsat_assuming _ -> None

let check_interpolant_contracts a b itp =
  let num_vars = max (Formula.num_vars a) (Formula.num_vars b) in
  assert (num_vars <= 14);
  (* support(I) within shared variables *)
  let occurs f =
    let arr = Array.make num_vars false in
    Formula.iter (fun c -> Clause.iter (fun l -> arr.(Lit.var l) <- true) c) f;
    arr
  in
  let in_a = occurs a and in_b = occurs b in
  Array.iter
    (fun v ->
      if not (in_a.(v) && in_b.(v)) then
        Alcotest.failf "interpolant depends on non-shared variable %d" v)
    (Aig.Cone.support itp [ Aig.output itp 0 ]);
  (* A |= I  and  I ∧ B unsat, exhaustively *)
  for mask = 0 to (1 lsl num_vars) - 1 do
    let assignment = Array.init num_vars (fun v -> (mask lsr v) land 1 = 1) in
    let value_i = (Aig.eval itp assignment).(0) in
    if Formula.satisfied_by a assignment && not value_i then
      Alcotest.failf "A |= I violated on %d" mask;
    if value_i && Formula.satisfied_by b assignment then
      Alcotest.failf "I and B satisfiable together on %d" mask
  done

let test_interpolant_hand () =
  let a = Formula.create () in
  ignore (Formula.add_list a [ nlit 0; lit 1 ]);
  let b = Formula.create () in
  ignore (Formula.add_list b [ lit 0 ]);
  ignore (Formula.add_list b [ nlit 1 ]);
  match solve_partition a b with
  | None -> Alcotest.fail "partition should be unsatisfiable"
  | Some (proof, root) ->
    let itp = Proof.Interpolant.compute proof ~root ~a ~b in
    check_interpolant_contracts a b itp

let test_interpolant_rejects_foreign_leaf () =
  let proof, root = hand_refutation () in
  let a = Formula.create () in
  ignore (Formula.add_list a [ lit 0; lit 1 ]);
  let b = Formula.create () in
  ignore (Formula.add_list b [ nlit 0; lit 1 ]);
  (* two of the four leaves are in neither partition *)
  match Proof.Interpolant.compute proof ~root ~a ~b with
  | exception Proof.Interpolant.Partition_error _ -> ()
  | _ -> Alcotest.fail "foreign leaves accepted"

let prop_interpolants_on_random_partitions =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interpolants satisfy the three contracts" ~count:60 arb
       (fun seed ->
         let rng = Support.Rng.create (seed + 500) in
         let nvars = 4 + Support.Rng.int rng 5 in
         let make_clause () =
           let rec pick acc k =
             if k = 0 then acc
             else
               let v = Support.Rng.int rng nvars in
               if List.exists (fun l -> Lit.var l = v) acc then pick acc k
               else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
           in
           Clause.of_list (pick [] 3)
         in
         let a = Formula.create () and b = Formula.create () in
         let total = int_of_float (5.0 *. float_of_int nvars) in
         for i = 1 to total do
           ignore (Formula.add (if i mod 2 = 0 then a else b) (make_clause ()))
         done;
         Formula.ensure_vars a nvars;
         Formula.ensure_vars b nvars;
         match solve_partition a b with
         | None -> true (* satisfiable: nothing to interpolate *)
         | Some (proof, root) ->
           let itp = Proof.Interpolant.compute proof ~root ~a ~b in
           check_interpolant_contracts a b itp;
           true))

let interpolant_suites =
  [
    ( "proof-interpolant",
      [
        Alcotest.test_case "hand example" `Quick test_interpolant_hand;
        Alcotest.test_case "foreign leaves rejected" `Quick test_interpolant_rejects_foreign_leaf;
        prop_interpolants_on_random_partitions;
      ] );
  ]

let test_dot_export () =
  let proof, root = hand_refutation () in
  let dot = Proof.Export.dot_to_string proof ~root in
  Alcotest.(check bool) "digraph" true (String.length dot > 0);
  (* one node line per proof node, one edge per resolution step + chain start *)
  let count needle =
    let n = ref 0 in
    let len = String.length needle in
    for i = 0 to String.length dot - len do
      if String.sub dot i len = needle then incr n
    done;
    !n
  in
  Alcotest.(check int) "7 nodes rendered" 7 (count "shape=");
  Alcotest.(check int) "6 edges" 6 (count "->")

let dot_suites =
  [ ("proof-dot", [ Alcotest.test_case "dot export" `Quick test_dot_export ]) ]

(* --- binary certificates (Binfmt + Hint_check on v1 bytes) --- *)

let test_binfmt_roundtrip_hand () =
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode proof ~root in
  Alcotest.(check bool) "binary sniffed" true (Proof.Binfmt.is_binary data);
  Alcotest.(check bool) "ascii not sniffed" false
    (Proof.Binfmt.is_binary (Proof.Export.trace_to_string proof ~root));
  let proof', root' = Proof.Binfmt.decode data in
  Alcotest.(check int) "same node count" 7 (R.size proof');
  Alcotest.(check bool) "root empty" true (Clause.is_empty (R.clause_of proof' root'));
  match Proof.Checker.check proof' ~root:root' ~formula:(formula_of_leaves ()) () with
  | Ok chains -> Alcotest.(check int) "three chains" 3 chains
  | Error e -> Alcotest.failf "decoded proof rejected: %a" Proof.Checker.pp_error e

let test_stream_check_accepts_hand () =
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode proof ~root in
  match Proof.Hint_check.check ~leaf_ok:(Formula.mem (formula_of_leaves ())) data with
  | Error e -> Alcotest.failf "valid certificate rejected: %a" Proof.Hint_check.pp_error e
  | Ok st ->
    Alcotest.(check int) "seven nodes" 7 st.Proof.Hint_check.nodes;
    Alcotest.(check int) "three chains" 3 st.Proof.Hint_check.chains;
    Alcotest.(check bool) "deletes emitted" true (st.Proof.Hint_check.deletes > 0);
    Alcotest.(check bool) "peak below node count" true
      (st.Proof.Hint_check.peak_live < st.Proof.Hint_check.nodes)

let test_stream_check_rejects_nonempty_root () =
  (* Root the certificate at the intermediate unit (b): well-formed
     bytes, but no refutation. *)
  let proof = R.create () in
  let l1 = R.add_leaf proof (Clause.of_list [ lit 0; lit 1 ]) in
  let l2 = R.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let b = R.add_chain proof ~clause:(Clause.singleton (lit 1)) ~antecedents:[| l1; l2 |] ~pivots:[| 0 |] in
  let data = Proof.Binfmt.encode proof ~root:b in
  match Proof.Hint_check.check data with
  | Ok _ -> Alcotest.fail "non-refutation accepted"
  | Error e -> Alcotest.(check bool) "semantic, not malformed" false e.Proof.Hint_check.malformed

let test_stream_check_rejects_assumption_leaf () =
  let proof = R.create () in
  let l1 = R.add_leaf ~assumption:true proof (Clause.singleton (lit 0)) in
  let l2 = R.add_leaf proof (Clause.singleton (nlit 0)) in
  let root = R.add_chain proof ~clause:Clause.empty ~antecedents:[| l1; l2 |] ~pivots:[| 0 |] in
  let data = Proof.Binfmt.encode proof ~root in
  match Proof.Hint_check.check data with
  | Ok _ -> Alcotest.fail "assumption leaf accepted"
  | Error e -> Alcotest.(check bool) "semantic, not malformed" false e.Proof.Hint_check.malformed

let test_stream_check_rejects_foreign_leaf () =
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode proof ~root in
  let small = Formula.create () in
  ignore (Formula.add_list small [ lit 0; lit 1 ]);
  match Proof.Hint_check.check ~leaf_ok:(Formula.mem small) data with
  | Ok _ -> Alcotest.fail "foreign leaf accepted"
  | Error e -> Alcotest.(check bool) "semantic, not malformed" false e.Proof.Hint_check.malformed

let test_stream_check_rejects_corruption () =
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode proof ~root in
  let flip i =
    String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 0x7f) else c) data
  in
  (* Bad magic and truncation are byte-level corruption. *)
  (match Proof.Hint_check.check (flip 0) with
  | Error e -> Alcotest.(check bool) "bad magic is malformed" true e.Proof.Hint_check.malformed
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match Proof.Hint_check.check (String.sub data 0 (String.length data - 2)) with
  | Error e -> Alcotest.(check bool) "truncation is malformed" true e.Proof.Hint_check.malformed
  | Ok _ -> Alcotest.fail "truncated certificate accepted");
  match Proof.Binfmt.decode (flip 4) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "decode swallowed a bad version byte"

let test_binfmt_delete_then_use_rejected () =
  (* Hand-craft bytes: two unit leaves, a delete of node 0, then a
     chain citing the deleted node.  The reader must stream it (it is
     structurally fine) and the checker must reject the dead
     antecedent. *)
  let buf = Buffer.create 32 in
  Buffer.add_string buf Proof.Binfmt.magic;
  Buffer.add_char buf (Char.chr Proof.Binfmt.version);
  List.iter (Buffer.add_char buf)
    [
      '\003' (* node count 3 *);
      '\000'; '\001'; '\000' (* leaf (a): 1 literal, lit 0 *);
      '\000'; '\001'; '\001' (* leaf (~a): 1 literal, lit 1 *);
      '\003'; '\001'; '\000' (* delete node 0 *);
      '\002'; '\002'; '\002'; '\001' (* chain of nodes 0 and 1 *);
    ];
  match Proof.Hint_check.check (Buffer.contents buf) with
  | Ok _ -> Alcotest.fail "use-after-delete accepted"
  | Error e ->
    Alcotest.(check bool) "semantic, not malformed" false e.Proof.Hint_check.malformed

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- hinted certificates (encode_hinted + Hint_check) --- *)

let test_hinted_roundtrip_hand () =
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode_hinted proof ~root in
  Alcotest.(check bool) "hinted sniffed" true (Proof.Binfmt.is_hinted data);
  Alcotest.(check bool) "v1 not sniffed as hinted" false
    (Proof.Binfmt.is_hinted (Proof.Binfmt.encode proof ~root));
  let proof', root' = Proof.Binfmt.decode data in
  Alcotest.(check int) "same node count" 7 (R.size proof');
  Alcotest.(check bool) "root empty" true (Clause.is_empty (R.clause_of proof' root'));
  match Proof.Hint_check.check ~formula:(formula_of_leaves ()) data with
  | Error e -> Alcotest.failf "valid hinted certificate rejected: %a" Proof.Hint_check.pp_error e
  | Ok st ->
    Alcotest.(check int) "seven nodes" 7 st.Proof.Hint_check.nodes;
    Alcotest.(check int) "three chains" 3 st.Proof.Hint_check.chains;
    Alcotest.(check int) "three steps" 3 st.Proof.Hint_check.steps;
    Alcotest.(check int) "zero search: all steps hinted" st.Proof.Hint_check.steps
      st.Proof.Hint_check.hints_followed;
    Alcotest.(check int) "one shard without boundaries" 1 st.Proof.Hint_check.shards

let test_hinted_sharded_roundtrip () =
  (* Boundaries after [b] (proof id 4) and [nb] (proof id 5) with a
     shard floor of 1 force three shards; the final chain then pulls
     both its antecedents across shard boundaries, exercising the
     export table end to end. *)
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode_hinted ~boundaries:[| 4; 5 |] ~min_shard_nodes:1 proof ~root in
  (match Proof.Hint_check.check ~formula:(formula_of_leaves ()) data with
  | Error e -> Alcotest.failf "sharded certificate rejected: %a" Proof.Hint_check.pp_error e
  | Ok st ->
    Alcotest.(check int) "three shards" 3 st.Proof.Hint_check.shards;
    Alcotest.(check int) "three chains" 3 st.Proof.Hint_check.chains);
  let proof', root' = Proof.Binfmt.decode data in
  Alcotest.(check bool) "decoded root empty" true (Clause.is_empty (R.clause_of proof' root'))

(* The shard table is enforced in stream order.  The hand proof in
   three shards holds [l1 l2 b | l3 l4 nb | empty] and exports [b]
   (position 2) and [nb] (position 5) to the last shard.  Its header is
   the magic, the version, node count 7 and shard count 3, then per
   shard: end delta, body length, export count, and each export as a
   position delta and a clause (literal count, literals).  Shard 0's
   entry starts at byte 7 and its export at byte 10; shard 1's entry
   starts at byte 13. *)
let test_hinted_shard_table_enforced () =
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode_hinted ~boundaries:[| 4; 5 |] ~min_shard_nodes:1 proof ~root in
  let set s i c = String.mapi (fun j d -> if j = i then c else d) s in
  let rejected what ~malformed ~reason data =
    match Proof.Hint_check.check data with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool) (what ^ ": malformed") malformed e.Proof.Hint_check.malformed;
      Alcotest.(check string) (what ^ ": reason") reason e.Proof.Hint_check.reason
  in
  Alcotest.(check string) "shard 0 exports b = (x1)" "\002\001\002" (String.sub data 10 3);
  (* b exported as (~x1): the table no longer matches b's derivation. *)
  rejected "forged export" ~malformed:false
    ~reason:"exported clause for node 2 does not match its derivation" (set data 12 '\003');
  (* b dropped from shard 0's exports: the root's chain then uses it
     across shards unexported. *)
  rejected "unexported antecedent" ~malformed:false
    ~reason:"cross-shard antecedent 2 is not exported"
    (set (String.sub data 0 10) 9 '\000' ^ String.sub data 13 (String.length data - 13));
  (* Shard 0 declared one node longer and shard 1 one shorter: shard
     0's bytes define fewer nodes than it declares. *)
  rejected "shard node count" ~malformed:true ~reason:"shard 0 declares 4 nodes but defines 3"
    (set (set data 7 '\004') 13 '\002')

(* An un-hinted body of the same proof checks by clash search: the
   same chains and steps as the hinted body, none of them following a
   hint. *)
let test_hint_check_searches_unhinted () =
  let proof, root = hand_refutation () in
  let leaf_ok = Formula.mem (formula_of_leaves ()) in
  let stats data =
    match Proof.Hint_check.check ~leaf_ok data with
    | Ok st -> st
    | Error e -> Alcotest.failf "valid certificate rejected: %a" Proof.Hint_check.pp_error e
  in
  let v1 = stats (Proof.Binfmt.encode proof ~root) in
  let v3 = stats (Proof.Binfmt.encode_hinted proof ~root) in
  Alcotest.(check int) "same chains" v3.Proof.Hint_check.chains v1.Proof.Hint_check.chains;
  Alcotest.(check int) "three steps by search" 3 v1.Proof.Hint_check.steps;
  Alcotest.(check int) "no hint followed" 0 v1.Proof.Hint_check.hints_followed;
  Alcotest.(check int) "every hinted step followed" 3 v3.Proof.Hint_check.hints_followed

(* Rejection reports pin the offending chain id and byte offset in a
   fixed format — `check-proof` prints these verbatim, so downstream
   tooling may parse them. *)
let test_reject_message_pins_chain_and_offset () =
  (* v1: two unit leaves, delete node 0, then a chain citing it.
     Records end at bytes 9, 12, 15, 19; the offending chain is node 2. *)
  let v1 = Buffer.create 32 in
  Buffer.add_string v1 Proof.Binfmt.magic;
  Buffer.add_char v1 (Char.chr Proof.Binfmt.version);
  List.iter (Buffer.add_char v1)
    [
      '\003';
      '\000'; '\001'; '\000';
      '\000'; '\001'; '\001';
      '\003'; '\001'; '\000';
      '\002'; '\002'; '\002'; '\001';
    ];
  (match Proof.Hint_check.check (Buffer.contents v1) with
  | Ok _ -> Alcotest.fail "use-after-delete accepted"
  | Error e ->
    Alcotest.(check (option int)) "chain attributed" (Some 2) e.Proof.Hint_check.chain;
    Alcotest.(check string) "v1 message format"
      "chain 2, byte 19: antecedent 0 is dead (deleted before its last use)"
      (Format.asprintf "%a" Proof.Hint_check.pp_error e));
  (* The same proof in the hinted layout: a 5-byte header (node count,
     one shard of 3 nodes, 14 body bytes, no exports) shifts the chain
     record's end to byte 24; the chain carries one pivot hint. *)
  let v3 = Buffer.create 32 in
  Buffer.add_string v3 Proof.Binfmt.magic;
  Buffer.add_char v3 (Char.chr Proof.Binfmt.version_hinted);
  List.iter (Buffer.add_char v3)
    [
      '\003'; '\001'; '\003'; '\014'; '\000';
      '\000'; '\001'; '\000';
      '\000'; '\001'; '\001';
      '\003'; '\001'; '\000';
      '\002'; '\002'; '\002'; '\001'; '\000';
    ];
  let expected = "chain 2, byte 24: antecedent 0 is dead (deleted before its last use)" in
  match Proof.Hint_check.check (Buffer.contents v3) with
  | Ok _ -> Alcotest.fail "hinted use-after-delete accepted"
  | Error e ->
    Alcotest.(check (option int)) "hinted chain attributed" (Some 2) e.Proof.Hint_check.chain;
    Alcotest.(check string) "hinted message format" expected
      (Format.asprintf "%a" Proof.Hint_check.pp_error e)

let test_hinted_wrong_hint_rejected () =
  (* Flip the final chain's pivot hint (variable 1 -> variable 0): the
     step fails to resolve on the named variable, and the checker must
     reject without classifying the bytes as corrupt. *)
  let proof, root = hand_refutation () in
  let data = Proof.Binfmt.encode_hinted proof ~root in
  (* The last byte of the final chain record is its single pivot. *)
  let flipped =
    String.mapi
      (fun i c -> if i = String.length data - 1 then Char.chr (Char.code c lxor 1) else c)
      data
  in
  match Proof.Hint_check.check flipped with
  | Ok _ -> Alcotest.fail "wrong hint accepted"
  | Error e -> Alcotest.(check bool) "semantic, not malformed" false e.Proof.Hint_check.malformed

(* --- regressions for the proof-I/O bugfixes --- *)

let test_drup_skips_deletions_comments_crlf () =
  (* A solver-style DRUP file: comments, a deletion line and CRLF
     endings — all of which used to raise [Failure]. *)
  let drup = "c proof of the hand example\r\n2 0\r\nd 1 2 0\r\n-2 0\r\n0\r\n" in
  match Proof.Rup.check_drup_string (formula_of_leaves ()) drup with
  | Ok n -> Alcotest.(check int) "three lemmas survive" 3 n
  | Error e -> Alcotest.failf "solver-style DRUP rejected: %a" Proof.Rup.pp_error e

let test_rup_empty_stream_error_index () =
  match Proof.Rup.check_stream (formula_of_leaves ()) [] with
  | Ok _ -> Alcotest.fail "empty stream accepted"
  | Error e -> Alcotest.(check int) "index 0, not -1" 0 e.Proof.Rup.index

let test_trace_rejects_duplicate_id () =
  let text = "1 L 1 2 0\n1 L -1 2 0\n2 C 1 1 1 0 2 0\n" in
  match Proof.Export.trace_of_string text with
  | exception Failure msg -> Alcotest.(check bool) "names the duplicate" true (contains msg "duplicate")
  | _ -> Alcotest.fail "duplicate node id silently accepted"

let test_trace_accepts_crlf () =
  let proof, root = hand_refutation () in
  let text = Proof.Export.trace_to_string proof ~root in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' text)
  in
  let proof', root' = Proof.Export.trace_of_string crlf in
  match Proof.Checker.check proof' ~root:root' ~formula:(formula_of_leaves ()) () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "CRLF trace rejected: %a" Proof.Checker.pp_error e

let binfmt_suites =
  [
    ( "proof-binfmt",
      [
        Alcotest.test_case "roundtrip hand proof" `Quick test_binfmt_roundtrip_hand;
        Alcotest.test_case "stream check accepts" `Quick test_stream_check_accepts_hand;
        Alcotest.test_case "stream check rejects non-empty root" `Quick
          test_stream_check_rejects_nonempty_root;
        Alcotest.test_case "stream check rejects assumption leaf" `Quick
          test_stream_check_rejects_assumption_leaf;
        Alcotest.test_case "stream check rejects foreign leaf" `Quick
          test_stream_check_rejects_foreign_leaf;
        Alcotest.test_case "stream check rejects corruption" `Quick
          test_stream_check_rejects_corruption;
        Alcotest.test_case "use-after-delete rejected" `Quick test_binfmt_delete_then_use_rejected;
        Alcotest.test_case "hinted roundtrip hand proof" `Quick test_hinted_roundtrip_hand;
        Alcotest.test_case "hinted sharded roundtrip" `Quick test_hinted_sharded_roundtrip;
        Alcotest.test_case "hinted shard table enforced" `Quick test_hinted_shard_table_enforced;
        Alcotest.test_case "hint checker accepts un-hinted input by search" `Quick
          test_hint_check_searches_unhinted;
        Alcotest.test_case "rejection pins chain id and byte offset" `Quick
          test_reject_message_pins_chain_and_offset;
        Alcotest.test_case "wrong pivot hint rejected" `Quick test_hinted_wrong_hint_rejected;
        Alcotest.test_case "drup skips d/c/CRLF lines" `Quick test_drup_skips_deletions_comments_crlf;
        Alcotest.test_case "empty rup stream error index" `Quick test_rup_empty_stream_error_index;
        Alcotest.test_case "trace rejects duplicate id" `Quick test_trace_rejects_duplicate_id;
        Alcotest.test_case "trace accepts CRLF" `Quick test_trace_accepts_crlf;
      ] );
  ]

let suites = base_suites @ extra_suites @ interpolant_suites @ dot_suites @ binfmt_suites
