(* Tests for the CNF package: clause algebra, formulas, the Tseitin
   transform (checked semantically against graph evaluation) and
   DIMACS round trips. *)

module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Lit = Aig.Lit

let lit v = Lit.of_var v
let nlit v = Lit.neg (Lit.of_var v)
let clause = Alcotest.testable Clause.pp Clause.equal

(* --- Clause --- *)

let test_clause_normalization () =
  let c = Clause.of_list [ lit 3; lit 1; lit 3; lit 2 ] in
  Alcotest.(check (list int)) "sorted, deduplicated" [ lit 1; lit 2; lit 3 ] (Clause.to_list c);
  Alcotest.(check int) "size" 3 (Clause.size c);
  Alcotest.(check bool) "mem" true (Clause.mem (lit 2) c);
  Alcotest.(check bool) "not mem" false (Clause.mem (nlit 2) c)

let test_clause_tautology_rejected () =
  match Clause.of_list [ lit 1; nlit 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tautology accepted"

let test_clause_resolve () =
  let c = Clause.of_list [ lit 1; lit 2 ] in
  let d = Clause.of_list [ nlit 1; lit 3 ] in
  let r = Clause.resolve c d ~pivot:1 in
  Alcotest.check clause "resolvent" (Clause.of_list [ lit 2; lit 3 ]) r;
  Alcotest.check clause "resolve_any" r (Clause.resolve_any ~c ~d);
  Alcotest.check clause "resolve_any symmetric" r (Clause.resolve_any ~c:d ~d:c)

let test_clause_resolve_errors () =
  let c = Clause.of_list [ lit 1; lit 2 ] in
  let d = Clause.of_list [ lit 1; lit 3 ] in
  (match Clause.resolve c d ~pivot:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing negative pivot accepted");
  (match Clause.resolve_any ~c ~d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no clash accepted");
  let e = Clause.of_list [ nlit 1; nlit 2 ] in
  match Clause.resolve_any ~c ~d:e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double clash accepted"

let test_clause_resolve_to_empty () =
  let r = Clause.resolve (Clause.singleton (lit 4)) (Clause.singleton (nlit 4)) ~pivot:4 in
  Alcotest.(check bool) "empty" true (Clause.is_empty r)

let test_clause_subsumes () =
  let small = Clause.of_list [ lit 1 ] in
  let big = Clause.of_list [ lit 1; nlit 2 ] in
  Alcotest.(check bool) "subset" true (Clause.subsumes small big);
  Alcotest.(check bool) "superset" false (Clause.subsumes big small);
  Alcotest.(check bool) "empty subsumes all" true (Clause.subsumes Clause.empty small)

let test_clause_satisfied_by () =
  let c = Clause.of_list [ lit 0; nlit 1 ] in
  Alcotest.(check bool) "sat by x0" true (Clause.satisfied_by c [| true; true |]);
  Alcotest.(check bool) "sat by ~x1" true (Clause.satisfied_by c [| false; false |]);
  Alcotest.(check bool) "unsat" false (Clause.satisfied_by c [| false; true |])

let prop_resolve_soundness =
  (* Any assignment satisfying both premises satisfies the resolvent. *)
  let open QCheck in
  let gen =
    Gen.map2
      (fun rest1 rest2 ->
        let mk neg rest =
          (* Polarity is a function of the variable, so no clause can
             be tautological. *)
          let of_raw v =
            let var = 1 + (v mod 5) in
            Lit.make var ~neg:(var mod 2 = 0)
          in
          Clause.of_list (Lit.make 0 ~neg :: List.sort_uniq compare (List.map of_raw rest))
        in
        (mk false rest1, mk true rest2))
      (Gen.list_size (Gen.int_bound 4) Gen.nat)
      (Gen.list_size (Gen.int_bound 4) Gen.nat)
  in
  let arb = make ~print:(fun (c, d) -> Format.asprintf "%a %a" Clause.pp c Clause.pp d) gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"resolution is sound" ~count:200 arb (fun (c, d) ->
         match Clause.resolve c d ~pivot:0 with
         | exception Invalid_argument _ -> true (* tautological resolvent: skip *)
         | r ->
           let ok = ref true in
           for mask = 0 to 63 do
             let assignment = Array.init 6 (fun v -> (mask lsr v) land 1 = 1) in
             if
               Clause.satisfied_by c assignment
               && Clause.satisfied_by d assignment
               && not (Clause.satisfied_by r assignment)
             then ok := false
           done;
           !ok))

(* The merge kernel against a sort-based reference kept here: the
   union of both literal lists minus the pivot's two literals, sorted
   with [List.sort_uniq], with the kernel's messages on failure. *)
let tautology_msg = "Clause: tautology (both polarities of a variable)"

let reference_resolve c d ~pivot =
  let pos = Lit.of_var pivot in
  let c = Clause.to_list c and d = Clause.to_list d in
  if not (List.mem pos c) then Error "Clause.resolve: positive pivot not in first clause"
  else if not (List.mem (Lit.neg pos) d) then
    Error "Clause.resolve: negative pivot not in second clause"
  else
    let lits =
      List.sort_uniq compare
        (List.filter (fun l -> Lit.var l <> pivot) c @ List.filter (fun l -> Lit.var l <> pivot) d)
    in
    if List.exists (fun l -> List.mem (Lit.neg l) lits) lits then Error tautology_msg else Ok lits

let reference_resolve_on c d ~pivot =
  let pos = Lit.of_var pivot in
  if Clause.mem pos c && Clause.mem (Lit.neg pos) d then reference_resolve c d ~pivot
  else reference_resolve d c ~pivot

let reference_clashes c d =
  List.filter_map
    (fun l -> if Clause.mem (Lit.neg l) d then Some (Lit.var l) else None)
    (Clause.to_list c)

let reference_resolve_clash c d =
  match reference_clashes c d with
  | [] -> Ok None
  | [ v ] -> Result.map (fun r -> Some (r, v)) (reference_resolve_on c d ~pivot:v)
  | _ -> Error tautology_msg

let outcome f = match f () with r -> Ok r | exception Invalid_argument msg -> Error msg

(* Random pairs over a few variables: the pivot is planted in either
   orientation, or left to chance (possibly a variable neither clause
   mentions), so clashes, shared literals and tiny clauses are common. *)
let gen_kernel_case =
  let open QCheck.Gen in
  int_range 1 6 >>= fun nvars ->
  let clause =
    map
      (List.mapi (fun v pick ->
           match pick with 1 -> [ Lit.of_var v ] | 2 -> [ Lit.neg (Lit.of_var v) ] | _ -> []))
      (list_repeat nvars (frequency [ (2, return 0); (1, return 1); (1, return 2) ]))
  in
  map2
    (fun (c, d) (pivot, plant) ->
      let drop = List.filter (fun l -> Lit.var l <> pivot) in
      let c, d = (List.concat c, List.concat d) in
      let c, d =
        match plant with
        | 1 -> (Lit.of_var pivot :: drop c, Lit.neg (Lit.of_var pivot) :: drop d)
        | 2 -> (Lit.neg (Lit.of_var pivot) :: drop c, Lit.of_var pivot :: drop d)
        | _ -> (c, d)
      in
      (Clause.of_list c, Clause.of_list d, pivot))
    (pair clause clause)
    (pair (int_bound nvars) (frequency [ (1, return 0); (2, return 1); (1, return 2) ]))

let test_kernel_matches_reference () =
  let seen = Hashtbl.create 8 in
  let note what = Hashtbl.replace seen what () in
  let print (c, d, pivot) = Format.asprintf "%a %a pivot %d" Clause.pp c Clause.pp d pivot in
  let lists = Result.map Clause.to_list in
  let prop (c, d, pivot) =
    let expected = reference_resolve c d ~pivot in
    (match expected with
    | Error msg when msg = tautology_msg -> note "second clash"
    | Error _ -> note "missing pivot"
    | Ok [] -> note "empty resolvent"
    | Ok _ ->
      if List.exists (fun l -> Clause.mem l d) (Clause.to_list c) then note "shared literals");
    let clash =
      outcome (fun () -> Clause.resolve_clash c d)
      |> Result.map (Option.map (fun (r, v) -> (Clause.to_list r, v)))
    in
    let any =
      match reference_resolve_clash c d with
      | Ok (Some (r, _)) -> Ok r
      | Ok None -> Error "Clause.resolve_any: no clashing variable"
      | Error _ -> Error "Clause.resolve_any: more than one clashing variable"
    in
    lists (outcome (fun () -> Clause.resolve c d ~pivot)) = expected
    && lists (outcome (fun () -> Clause.resolve_on c d ~pivot)) = reference_resolve_on c d ~pivot
    && clash = reference_resolve_clash c d
    && lists (outcome (fun () -> Clause.resolve_any ~c ~d)) = any
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x5eed |])
    (QCheck.Test.make ~name:"merge kernel = reference" ~count:3000
       (QCheck.make ~print gen_kernel_case) prop);
  List.iter
    (fun what -> Alcotest.(check bool) ("covers " ^ what) true (Hashtbl.mem seen what))
    [ "missing pivot"; "second clash"; "shared literals"; "empty resolvent" ]

(* --- Formula --- *)

let test_formula_basics () =
  let f = Formula.create () in
  let i0 = Formula.add_list f [ lit 0; nlit 2 ] in
  let i1 = Formula.add_list f [ lit 1 ] in
  Alcotest.(check int) "indices" 0 i0;
  Alcotest.(check int) "indices" 1 i1;
  Alcotest.(check int) "clauses" 2 (Formula.num_clauses f);
  Alcotest.(check int) "vars" 3 (Formula.num_vars f);
  Alcotest.(check bool) "mem" true (Formula.mem f (Clause.of_list [ nlit 2; lit 0 ]));
  Alcotest.(check bool) "not mem" false (Formula.mem f (Clause.singleton (lit 0)));
  Formula.ensure_vars f 10;
  Alcotest.(check int) "ensured vars" 10 (Formula.num_vars f)

let test_formula_copy_independent () =
  let f = Formula.create () in
  ignore (Formula.add_list f [ lit 0 ]);
  let g = Formula.copy f in
  ignore (Formula.add_list g [ lit 1 ]);
  Alcotest.(check int) "original unchanged" 1 (Formula.num_clauses f);
  Alcotest.(check int) "copy extended" 2 (Formula.num_clauses g)

(* --- Tseitin --- *)

let prop_tseitin_models_are_simulations =
  (* For a random small graph and every input assignment, the unique
     extension of the inputs by simulation satisfies the Tseitin CNF,
     and flipping any single internal node falsifies it. *)
  let arb =
    QCheck.make
      ~print:(fun seed -> string_of_int seed)
      QCheck.Gen.nat
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"tseitin characterizes simulations" ~count:60 arb (fun seed ->
         let g =
           Circuits.Random_aig.generate (Support.Rng.create seed) ~num_inputs:4 ~num_ands:12
             ~num_outputs:1
         in
         let f = Cnf.Tseitin.of_graph g in
         let num_nodes = Aig.num_nodes g in
         let ok = ref true in
         for mask = 0 to 15 do
           let inputs = Array.init 4 (fun i -> (mask lsr i) land 1 = 1) in
           (* Build the simulation-consistent assignment over all vars:
              var 0 (constant) is false. *)
           let assignment = Array.make (max num_nodes (Formula.num_vars f)) false in
           for i = 0 to 3 do
             assignment.(Lit.var (Aig.input g i)) <- inputs.(i)
           done;
           Aig.iter_ands g (fun n ->
               let value l = assignment.(Lit.var l) <> Lit.is_neg l in
               assignment.(n) <- value (Aig.fanin0 g n) && value (Aig.fanin1 g n));
           (* NB: the Tseitin unit clause (1) says "var 0 is false";
              satisfied_by reads assignment.(0) = false. *)
           if not (Formula.satisfied_by f assignment) then ok := false;
           (* Flip each AND node: must violate its definition. *)
           Aig.iter_ands g (fun n ->
               assignment.(n) <- not assignment.(n);
               if Formula.satisfied_by f assignment then ok := false;
               assignment.(n) <- not assignment.(n))
         done;
         !ok))

let test_tseitin_counts () =
  let g = Circuits.Adder.ripple_carry 2 in
  let f = Cnf.Tseitin.of_graph g in
  Alcotest.(check int) "3 clauses per AND plus constant unit"
    (1 + (3 * Aig.num_ands g))
    (Formula.num_clauses f);
  Alcotest.(check int) "vars = nodes" (Aig.num_nodes g) (Formula.num_vars f)

let test_miter_formula_requires_single_output () =
  let g = Circuits.Adder.ripple_carry 2 in
  match Cnf.Tseitin.miter_formula g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "multi-output graph accepted"

(* --- DIMACS --- *)

let test_dimacs_roundtrip () =
  let f = Formula.create () in
  ignore (Formula.add_list f [ lit 0; nlit 1; lit 2 ]);
  ignore (Formula.add_list f [ nlit 0 ]);
  ignore (Formula.add_list f []);
  let f' = Cnf.Dimacs.of_string (Cnf.Dimacs.to_string f) in
  Alcotest.(check int) "clauses" (Formula.num_clauses f) (Formula.num_clauses f');
  Formula.iteri
    (fun i c -> Alcotest.check clause (Printf.sprintf "clause %d" i) c (Formula.clause f' i))
    f

let test_dimacs_comments_and_multiline () =
  let text = "c a comment\np cnf 3 2\n1 -2\n3 0\nc mid\n-1 2 0\n" in
  let f = Cnf.Dimacs.of_string text in
  Alcotest.(check int) "clauses" 2 (Formula.num_clauses f);
  Alcotest.check clause "multiline clause"
    (Clause.of_list [ lit 0; nlit 1; lit 2 ])
    (Formula.clause f 0)

let test_dimacs_errors () =
  let expect text =
    match Cnf.Dimacs.of_string text with
    | exception Cnf.Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" text
  in
  expect "1 2 0\n";
  (* clause before header *)
  expect "p cnf x 2\n";
  expect "p cnf 2 1\n1 2\n" (* unterminated *)

let suites =
  [
    ( "cnf",
      [
        Alcotest.test_case "clause normalization" `Quick test_clause_normalization;
        Alcotest.test_case "tautology rejected" `Quick test_clause_tautology_rejected;
        Alcotest.test_case "resolve" `Quick test_clause_resolve;
        Alcotest.test_case "resolve errors" `Quick test_clause_resolve_errors;
        Alcotest.test_case "resolve to empty" `Quick test_clause_resolve_to_empty;
        Alcotest.test_case "subsumption" `Quick test_clause_subsumes;
        Alcotest.test_case "satisfied_by" `Quick test_clause_satisfied_by;
        prop_resolve_soundness;
        Alcotest.test_case "merge kernel matches a sort-based reference" `Quick
          test_kernel_matches_reference;
        Alcotest.test_case "formula basics" `Quick test_formula_basics;
        Alcotest.test_case "formula copy" `Quick test_formula_copy_independent;
        prop_tseitin_models_are_simulations;
        Alcotest.test_case "tseitin clause counts" `Quick test_tseitin_counts;
        Alcotest.test_case "miter formula arity" `Quick test_miter_formula_requires_single_output;
        Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
        Alcotest.test_case "dimacs comments/multiline" `Quick test_dimacs_comments_and_multiline;
        Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
      ] );
  ]
