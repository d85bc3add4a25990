(* Tests for the SAT package: Luby sequence, heap, CDCL solver versus
   the brute-force oracle, and the proofs logged on UNSAT runs. *)

module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Lit = Aig.Lit
module Solver = Sat.Solver
module R = Proof.Resolution

let lit v = Lit.of_var v
let nlit v = Lit.neg (Lit.of_var v)

let formula_of_lists lists =
  let f = Formula.create () in
  List.iter (fun lits -> ignore (Formula.add_list f lits)) lists;
  f

let check_unsat_proof f root proof =
  match Proof.Checker.check proof ~root ~formula:f () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "proof check failed: %a" Proof.Checker.pp_error e

let solve_and_verify f =
  let s = Solver.create () in
  Solver.add_formula s f;
  match Solver.solve s with
  | Solver.Sat model ->
    Alcotest.(check bool) "model satisfies formula" true (Formula.satisfied_by f model);
    true
  | Solver.Unsat root ->
    check_unsat_proof f root (Solver.proof s);
    false
  | Solver.Unknown -> Alcotest.fail "unexpected Unknown"
  | Solver.Unsat_assuming _ -> Alcotest.fail "unexpected Unsat_assuming"

let test_luby () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let actual = List.init (List.length expected) Sat.Luby.term in
  Alcotest.(check (list int)) "luby prefix" expected actual

let test_heap () =
  let scores = [| 5.0; 1.0; 9.0; 3.0 |] in
  let h = Sat.Heap.create (fun v -> scores.(v)) in
  List.iter (Sat.Heap.insert h) [ 0; 1; 2; 3 ];
  Alcotest.(check int) "max first" 2 (Sat.Heap.pop h);
  scores.(1) <- 100.0;
  Sat.Heap.update h 1;
  Alcotest.(check int) "after update" 1 (Sat.Heap.pop h);
  Alcotest.(check int) "then" 0 (Sat.Heap.pop h);
  Alcotest.(check int) "last" 3 (Sat.Heap.pop h);
  Alcotest.(check bool) "empty" true (Sat.Heap.is_empty h)

let test_trivial_sat () =
  let f = formula_of_lists [ [ lit 0 ]; [ nlit 1 ] ] in
  Alcotest.(check bool) "sat" true (solve_and_verify f)

let test_trivial_unsat () =
  let f = formula_of_lists [ [ lit 0 ]; [ nlit 0 ] ] in
  Alcotest.(check bool) "unsat" false (solve_and_verify f)

let test_empty_clause () =
  let f = formula_of_lists [ [] ] in
  Alcotest.(check bool) "unsat" false (solve_and_verify f)

let test_pigeonhole () =
  (* 3 pigeons, 2 holes: p(i,h) with i in 0..2, h in 0..1. *)
  let v i h = (i * 2) + h in
  let f = Formula.create () in
  for i = 0 to 2 do
    ignore (Formula.add_list f [ lit (v i 0); lit (v i 1) ])
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        ignore (Formula.add_list f [ nlit (v i h); nlit (v j h) ])
      done
    done
  done;
  Alcotest.(check bool) "php(3,2) unsat" false (solve_and_verify f)

let test_random_vs_brute () =
  (* Random 3-CNFs around the phase transition, checked against the
     brute-force oracle, with proofs verified on every UNSAT answer. *)
  let rng = Support.Rng.create 42 in
  for _ = 1 to 200 do
    let nvars = 4 + Support.Rng.int rng 9 in
    let nclauses = int_of_float (4.3 *. float_of_int nvars) in
    let f = Formula.create () in
    Formula.ensure_vars f nvars;
    for _ = 1 to nclauses do
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Support.Rng.int rng nvars in
          if List.exists (fun l -> Lit.var l = v) acc then pick acc k
          else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
      in
      ignore (Formula.add f (Clause.of_list (pick [] 3)))
    done;
    let expected =
      match Sat.Brute.solve f with
      | Sat.Brute.Sat _ -> true
      | Sat.Brute.Unsat -> false
    in
    let actual = solve_and_verify f in
    Alcotest.(check bool) "agreement with oracle" expected actual
  done

let random_3cnf rng nvars nclauses =
  List.init nclauses (fun _ ->
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Support.Rng.int rng nvars in
          if List.exists (fun l -> Lit.var l = v) acc then pick acc k
          else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
      in
      Clause.of_list (pick [] 3))

(* A random formula on a solver that declares many more variables than
   the formula uses, its variables spread out among them. *)
type padded = {
  solver : Solver.t;
  clauses : Clause.t array; (* over the formula's variables *)
  placed : Clause.t array; (* the same clauses over solver variables *)
  placement : int array; (* formula variable -> solver variable *)
}

let padded_instance rng ~declared =
  let nvars = 4 + Support.Rng.int rng 9 in
  let clauses = random_3cnf rng nvars (int_of_float (4.3 *. float_of_int nvars)) in
  let stride = declared / nvars in
  let placement = Array.init nvars (fun v -> (v * stride) + Support.Rng.int rng stride) in
  let place l = Lit.make placement.(Lit.var l) ~neg:(Lit.is_neg l) in
  let solver = Solver.create () in
  Solver.ensure_vars solver declared;
  {
    solver;
    clauses = Array.of_list clauses;
    placed = Array.of_list (List.map (Clause.map_lits place) clauses);
    placement;
  }

(* The first [k] clauses of [cs] as a formula over [nvars] variables. *)
let prefix_formula ?(nvars = 0) cs k =
  let f = Formula.create () in
  Formula.ensure_vars f nvars;
  Array.iteri (fun i c -> if i < k then ignore (Formula.add f c)) cs;
  f

(* Solve [p] with its first [k] clauses added, against the oracle. *)
let check_padded p k =
  let f = prefix_formula ~nvars:(Array.length p.placement) p.clauses k in
  let expected = match Sat.Brute.solve f with Sat.Brute.Sat _ -> true | Sat.Brute.Unsat -> false in
  match Solver.solve p.solver with
  | Solver.Sat model ->
    Alcotest.(check bool) "oracle agrees (sat)" true expected;
    Alcotest.(check bool) "model satisfies formula" true
      (Formula.satisfied_by f (Array.map (fun v -> model.(v)) p.placement))
  | Solver.Unsat root ->
    Alcotest.(check bool) "oracle agrees (unsat)" false expected;
    check_unsat_proof (prefix_formula p.placed k) root (Solver.proof p.solver)
  | Solver.Unknown | Solver.Unsat_assuming _ -> Alcotest.fail "unexpected answer"

let test_lazy_watch_lists () =
  (* Two solvers run interleaved, clause by clause and call by call.
     Each declares 1000 variables and uses at most 12, so most literals
     are never watched; those share one empty watch list across all
     solvers.  A write to it from one solver would show up in the
     other as a watcher of a clause it does not have. *)
  let rng = Support.Rng.create 7 in
  for _ = 1 to 60 do
    let a = padded_instance rng ~declared:1000 and b = padded_instance rng ~declared:1000 in
    let add p i = if i < Array.length p.placed then Solver.add_clause p.solver p.placed.(i) in
    let n = max (Array.length a.placed) (Array.length b.placed) in
    (* Half of each formula, both solved, then the rest, both solved. *)
    for i = 0 to (n / 2) - 1 do
      add a i;
      add b i
    done;
    check_padded a (n / 2);
    check_padded b (n / 2);
    for i = n / 2 to n - 1 do
      add b i;
      add a i
    done;
    check_padded b n;
    check_padded a n
  done;
  Alcotest.(check int) "shared empty watch list stays empty" 0 (Solver.shared_watch_list_size ())

let test_assumption_units_lift () =
  (* F = (x0 -> x1) (x1 -> x2); assume x0 and ~x2: UNSAT.  Lifting must
     derive a sub-clause of (~x0 \/ x2) from F alone. *)
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ nlit 0; lit 1 ]);
  Solver.add_clause s (Clause.of_list [ nlit 1; lit 2 ]);
  Solver.add_clause ~assumption:true s (Clause.singleton (lit 0));
  Solver.add_clause ~assumption:true s (Clause.singleton (nlit 2));
  (match Solver.solve s with
  | Solver.Unsat root ->
    let proof = Solver.proof s in
    let lifted_root, lifted = Proof.Lift.refutation proof ~root in
    let expected = Clause.of_list [ nlit 0; lit 2 ] in
    Alcotest.(check bool) "lifted subsumes" true (Clause.subsumes lifted expected);
    let f = formula_of_lists [ [ nlit 0; lit 1 ]; [ nlit 1; lit 2 ] ] in
    let leaf_ok = Cnf.Formula.mem f in
    (match Proof.Checker.check_derivation proof ~root:lifted_root ~expected ~leaf_ok () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "lifted derivation rejected: %a" Proof.Checker.pp_error e)
  | Solver.Sat _ | Solver.Unknown | Solver.Unsat_assuming _ -> Alcotest.fail "expected UNSAT")

let test_unknown_budget () =
  (* A hard instance with a conflict budget of 0 must return Unknown
     (or decide instantly without any conflict). *)
  let v i h = (i * 4) + h in
  let f = Formula.create () in
  for i = 0 to 4 do
    ignore (Formula.add_list f (List.init 4 (fun h -> lit (v i h))))
  done;
  for h = 0 to 3 do
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        ignore (Formula.add_list f [ nlit (v i h); nlit (v j h) ])
      done
    done
  done;
  let s = Solver.create () in
  Solver.add_formula s f;
  match Solver.solve ~max_conflicts:0 s with
  | Solver.Unknown -> ()
  | Solver.Unsat _ | Solver.Unsat_assuming _ ->
    Alcotest.fail "php(5,4) should not refute within 0 conflicts"
  | Solver.Sat _ -> Alcotest.fail "php(5,4) is unsatisfiable"

let base_suites =
  [
    ( "sat",
      [
        Alcotest.test_case "luby prefix" `Quick test_luby;
        Alcotest.test_case "heap order" `Quick test_heap;
        Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
        Alcotest.test_case "empty clause" `Quick test_empty_clause;
        Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole;
        Alcotest.test_case "random 3-CNF vs oracle" `Quick test_random_vs_brute;
        Alcotest.test_case "interleaved padded solvers vs oracle" `Quick test_lazy_watch_lists;
        Alcotest.test_case "assumption lifting" `Quick test_assumption_units_lift;
        Alcotest.test_case "conflict budget" `Quick test_unknown_budget;
      ] );
  ]

(* --- native assumptions --- *)

let test_native_assumptions_sat () =
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ lit 0; lit 1 ]);
  match Solver.solve ~assumptions:[ nlit 0 ] s with
  | Solver.Sat model ->
    Alcotest.(check bool) "assumption honoured" false model.(0);
    Alcotest.(check bool) "clause satisfied" true model.(1)
  | Solver.Unsat _ | Solver.Unsat_assuming _ | Solver.Unknown ->
    Alcotest.fail "expected SAT under assumptions"

let test_native_assumptions_lemma () =
  (* F = (x0 -> x1)(x1 -> x2); assuming x0, ~x2 must fail with a proved
     clause subsuming (~x0 \/ x2). *)
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ nlit 0; lit 1 ]);
  Solver.add_clause s (Clause.of_list [ nlit 1; lit 2 ]);
  match Solver.solve ~assumptions:[ lit 0; nlit 2 ] s with
  | Solver.Unsat_assuming { clause; pid } -> (
    let expected = Clause.of_list [ nlit 0; lit 2 ] in
    Alcotest.(check bool) "lemma subsumes" true (Clause.subsumes clause expected);
    let f = formula_of_lists [ [ nlit 0; lit 1 ]; [ nlit 1; lit 2 ] ] in
    let leaf_ok = Cnf.Formula.mem f in
    match Proof.Checker.check_derivation (Solver.proof s) ~root:pid ~expected ~leaf_ok () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "lemma derivation rejected: %a" Proof.Checker.pp_error e)
  | Solver.Sat _ | Solver.Unsat _ | Solver.Unknown -> Alcotest.fail "expected Unsat_assuming"

let test_native_assumptions_reusable () =
  (* The solver must answer consistently across many queries, keeping
     learned clauses, and remain SAT-complete between failing calls. *)
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ nlit 0; lit 1 ]);
  Solver.add_clause s (Clause.of_list [ nlit 1; lit 2 ]);
  (match Solver.solve ~assumptions:[ lit 0 ] s with
  | Solver.Sat model -> Alcotest.(check bool) "propagated" true model.(2)
  | _ -> Alcotest.fail "expected SAT");
  (match Solver.solve ~assumptions:[ lit 0; nlit 2 ] s with
  | Solver.Unsat_assuming _ -> ()
  | _ -> Alcotest.fail "expected Unsat_assuming");
  (match Solver.solve ~assumptions:[ nlit 2 ] s with
  | Solver.Sat model -> Alcotest.(check bool) "x0 forced off" false model.(0)
  | _ -> Alcotest.fail "expected SAT");
  match Solver.solve s with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected SAT with no assumptions"

let test_native_assumptions_random () =
  (* Against brute force: for random satisfiable formulas and random
     assumption sets, Sat models satisfy everything, and every
     Unsat_assuming lemma is a checked derivation over the negated
     assumptions. *)
  let rng = Support.Rng.create 77 in
  for _ = 1 to 100 do
    let nvars = 4 + Support.Rng.int rng 6 in
    let f = Formula.create () in
    Formula.ensure_vars f nvars;
    for _ = 1 to 3 * nvars do
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Support.Rng.int rng nvars in
          if List.exists (fun l -> Lit.var l = v) acc then pick acc k
          else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
      in
      ignore (Formula.add f (Clause.of_list (pick [] 3)))
    done;
    let num_assumptions = 1 + Support.Rng.int rng 3 in
    let rec pick_assumptions acc k =
      if k = 0 then acc
      else
        let v = Support.Rng.int rng nvars in
        if List.exists (fun l -> Lit.var l = v) acc then pick_assumptions acc k
        else pick_assumptions (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
    in
    let assumptions = pick_assumptions [] num_assumptions in
    let s = Solver.create () in
    Solver.add_formula s f;
    (* Oracle: add assumptions as clauses to a copy. *)
    let f_plus = Formula.copy f in
    List.iter (fun l -> ignore (Formula.add f_plus (Clause.singleton l))) assumptions;
    let expected =
      match Sat.Brute.solve f_plus with
      | Sat.Brute.Sat _ -> true
      | Sat.Brute.Unsat -> false
    in
    match Solver.solve ~assumptions s with
    | Solver.Sat model ->
      Alcotest.(check bool) "oracle agrees (sat)" true expected;
      Alcotest.(check bool) "model satisfies" true (Formula.satisfied_by f model);
      List.iter
        (fun l ->
          Alcotest.(check bool) "assumption honoured" true (model.(Lit.var l) <> Lit.is_neg l))
        assumptions
    | Solver.Unsat_assuming { clause; pid } ->
      Alcotest.(check bool) "oracle agrees (unsat-assuming)" false expected;
      let negated = Clause.of_list (List.map Lit.neg assumptions) in
      Alcotest.(check bool) "lemma over negated assumptions" true (Clause.subsumes clause negated);
      (match
         Proof.Checker.check_derivation (Solver.proof s) ~root:pid ~expected:negated
           ~leaf_ok:(Cnf.Formula.mem f) ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "lemma rejected: %a" Proof.Checker.pp_error e)
    | Solver.Unsat root ->
      (* Globally unsat: stronger than unsat-under-assumptions. *)
      Alcotest.(check bool) "oracle agrees (unsat)" false expected;
      check_unsat_proof f root (Solver.proof s)
    | Solver.Unknown -> Alcotest.fail "unexpected Unknown"
  done

let assumption_suites =
  [
    ( "sat-assumptions",
      [
        Alcotest.test_case "sat under assumptions" `Quick test_native_assumptions_sat;
        Alcotest.test_case "lemma from failed assumptions" `Quick test_native_assumptions_lemma;
        Alcotest.test_case "incremental reuse" `Quick test_native_assumptions_reusable;
        Alcotest.test_case "random queries vs oracle" `Quick test_native_assumptions_random;
      ] );
  ]

(* --- clause-database reduction --- *)

let test_reduction_oracle () =
  (* A tiny reduction threshold forces constant clause deletion; the
     solver must stay correct and its proofs checkable. *)
  let rng = Support.Rng.create 314 in
  for _ = 1 to 60 do
    let nvars = 6 + Support.Rng.int rng 6 in
    let f = Formula.create () in
    Formula.ensure_vars f nvars;
    for _ = 1 to int_of_float (4.4 *. float_of_int nvars) do
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Support.Rng.int rng nvars in
          if List.exists (fun l -> Lit.var l = v) acc then pick acc k
          else pick (Lit.make v ~neg:(Support.Rng.bool rng) :: acc) (k - 1)
      in
      ignore (Formula.add f (Clause.of_list (pick [] 3)))
    done;
    let s = Solver.create ~reduce_base:20 () in
    Solver.add_formula s f;
    let expected =
      match Sat.Brute.solve f with
      | Sat.Brute.Sat _ -> true
      | Sat.Brute.Unsat -> false
    in
    match Solver.solve s with
    | Solver.Sat model ->
      Alcotest.(check bool) "oracle (sat)" true expected;
      Alcotest.(check bool) "model ok" true (Formula.satisfied_by f model)
    | Solver.Unsat root ->
      Alcotest.(check bool) "oracle (unsat)" false expected;
      check_unsat_proof f root (Solver.proof s)
    | Solver.Unknown | Solver.Unsat_assuming _ -> Alcotest.fail "unexpected result"
  done

let test_reduction_pigeonhole () =
  (* php(6,5) generates thousands of conflicts: with reduce_base=50 the
     database is reduced many times and the final proof still checks. *)
  let v i h = (i * 5) + h in
  let f = Formula.create () in
  for i = 0 to 5 do
    ignore (Formula.add_list f (List.init 5 (fun h -> lit (v i h))))
  done;
  for h = 0 to 4 do
    for i = 0 to 5 do
      for j = i + 1 to 5 do
        ignore (Formula.add_list f [ nlit (v i h); nlit (v j h) ])
      done
    done
  done;
  let s = Solver.create ~reduce_base:50 () in
  Solver.add_formula s f;
  match Solver.solve s with
  | Solver.Unsat root -> check_unsat_proof f root (Solver.proof s)
  | Solver.Sat _ | Solver.Unknown | Solver.Unsat_assuming _ ->
    Alcotest.fail "php(6,5) must be refuted"

let reduction_suites =
  [
    ( "sat-reduction",
      [
        Alcotest.test_case "oracle under heavy deletion" `Quick test_reduction_oracle;
        Alcotest.test_case "pigeonhole under deletion" `Quick test_reduction_pigeonhole;
      ] );
  ]

(* --- a reset solver is a new solver --- *)

(* One instance of the reset property: a random CNF, some of its units
   added as assumption leaves, over a solver declaring [declared]
   variables, solved once under native [assumptions] and a conflict
   [budget].  [kind] steers it towards one outcome: 0 sparse (Sat),
   1 dense (Unsat), 2 under assumptions (Unsat_assuming), 3 a pigeonhole
   on a budget of a few conflicts (Unknown). *)
type instance = {
  declared : int;
  clauses : (Clause.t * bool) list; (* clause, added as an assumption leaf *)
  assumptions : Lit.t list;
  budget : int option;
}

let random_instance rng kind =
  let nvars = 4 + Support.Rng.int rng 6 in
  let random_lit () = Lit.make (Support.Rng.int rng nvars) ~neg:(Support.Rng.bool rng) in
  let base =
    match kind with
    | 0 -> random_3cnf rng nvars (2 * nvars)
    | 1 -> random_3cnf rng nvars (7 * nvars)
    | 2 -> random_3cnf rng nvars (3 * nvars)
    | _ ->
      (* php(4,3): refuting it takes more conflicts than the budget. *)
      let v i h = (i * 3) + h in
      List.init 4 (fun i -> Clause.of_list (List.init 3 (fun h -> lit (v i h))))
      @ List.concat_map
          (fun h ->
            List.concat_map
              (fun i ->
                List.init (3 - i) (fun d -> Clause.of_list [ nlit (v i h); nlit (v (i + d + 1) h) ]))
              [ 0; 1; 2 ])
          [ 0; 1; 2 ]
  in
  let leaves =
    if kind = 3 then []
    else List.init (Support.Rng.int rng 3) (fun _ -> (Clause.singleton (random_lit ()), true))
  in
  {
    declared = 12 + Support.Rng.int rng 40;
    clauses = List.map (fun c -> (c, false)) base @ leaves;
    (* Kind 2 may name both polarities of a variable. *)
    assumptions = (if kind = 2 then List.init (1 + Support.Rng.int rng 4) (fun _ -> random_lit ()) else []);
    budget = (if kind = 3 then Some (Support.Rng.int rng 3) else None);
  }

let outcomes_seen = Hashtbl.create 4

(* Everything a caller can observe of one solve. *)
let run_instance s inst =
  Solver.ensure_vars s inst.declared;
  List.iter (fun (c, assumption) -> Solver.add_clause ~assumption s c) inst.clauses;
  let outcome =
    match Solver.solve ?max_conflicts:inst.budget ~assumptions:inst.assumptions s with
    | Solver.Sat model -> ("sat", Array.to_list (Array.map Bool.to_int model))
    | Solver.Unsat root -> ("unsat", [ root ])
    | Solver.Unsat_assuming { clause; pid } ->
      ("unsat-assuming", pid :: Array.to_list (Clause.lits clause))
    | Solver.Unknown -> ("unknown", [])
  in
  Hashtbl.replace outcomes_seen (fst outcome) ();
  if not (Solver.scratch_clear s) then
    QCheck.Test.fail_reportf "analysis scratch left marked after %s" (fst outcome);
  let nodes = ref [] in
  R.iter (fun id n -> nodes := (id, n) :: !nodes) (Solver.proof s);
  ( outcome,
    [
      Solver.num_vars s; Solver.num_conflicts s; Solver.num_decisions s;
      Solver.num_propagations s; Solver.num_learned s; Solver.num_restarts s;
    ],
    Array.to_list (Solver.trim_hints s),
    !nodes )

let reset_matches_new seed =
  let rng = Support.Rng.create seed in
  let instances = List.init 8 (fun i -> random_instance rng ((seed + i) mod 4)) in
  (* A low reduction threshold makes the reset solver carry a deleted
     clause database into the next instance. *)
  let reduce_base = 4 in
  let fresh_reg = Obs.Registry.create () and reset_reg = Obs.Registry.create () in
  let recycled = Obs.with_ambient reset_reg (fun () -> Solver.create ~reduce_base ()) in
  List.iteri
    (fun i inst ->
      let fresh =
        Obs.with_ambient fresh_reg (fun () -> run_instance (Solver.create ~reduce_base ()) inst)
      in
      R.clear (Solver.proof recycled);
      Solver.reset recycled;
      let again = Obs.with_ambient reset_reg (fun () -> run_instance recycled inst) in
      if fresh <> again then
        QCheck.Test.fail_reportf "seed %d, instance %d: the reset solver differs from a new one" seed i)
    instances;
  if Obs.Registry.counters fresh_reg <> Obs.Registry.counters reset_reg then
    QCheck.Test.fail_reportf "seed %d: registry counters differ" seed;
  true

let test_reset_outcomes_covered () =
  List.iter
    (fun o -> Alcotest.(check bool) (o ^ " reached") true (Hashtbl.mem outcomes_seen o))
    [ "sat"; "unsat"; "unsat-assuming"; "unknown" ]

let reset_suites =
  [
    ( "sat-reset",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"reset solver matches a new one" ~count:150
             (QCheck.make ~print:string_of_int QCheck.Gen.nat)
             reset_matches_new);
        Alcotest.test_case "reset property reached every outcome" `Quick
          test_reset_outcomes_covered;
      ] );
  ]

let suites = base_suites @ assumption_suites @ reduction_suites @ reset_suites
