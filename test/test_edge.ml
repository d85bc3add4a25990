(* Edge-case and error-path coverage across the libraries: argument
   validation, degenerate inputs, and API corners the main suites do
   not reach. *)

module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Lit = Aig.Lit
module Solver = Sat.Solver

let lit v = Lit.of_var v
let nlit v = Lit.neg (Lit.of_var v)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- graph argument validation --- *)

let test_graph_validation () =
  let g = Aig.create ~num_inputs:2 in
  expect_invalid "negative inputs" (fun () -> Aig.create ~num_inputs:(-1));
  expect_invalid "input range" (fun () -> Aig.input g 2);
  expect_invalid "and_ range" (fun () -> Aig.and_ g (Lit.of_var 50) Lit.true_);
  expect_invalid "add_output range" (fun () -> Aig.add_output g (Lit.of_var 50));
  expect_invalid "output index" (fun () -> Aig.output g 0);
  expect_invalid "set_output index" (fun () -> Aig.set_output g 0 Lit.true_);
  expect_invalid "fanin of input" (fun () -> Aig.fanin0 g 1);
  expect_invalid "eval arity" (fun () -> Aig.eval g [| true |]);
  expect_invalid "append arity" (fun () ->
      Aig.append g (Circuits.Adder.ripple_carry 2) ~inputs:[| Aig.input g 0 |])

let test_graph_zero_inputs () =
  (* A constant-only graph is legal. *)
  let g = Aig.create ~num_inputs:0 in
  Aig.add_output g Lit.true_;
  Alcotest.(check (list bool)) "constant true" [ true ] (Array.to_list (Aig.eval g [||]));
  Aig.check g

let test_graph_output_of_constant () =
  let g = Aig.create ~num_inputs:1 in
  Aig.add_output g Lit.false_;
  Aig.add_output g (Aig.input g 0);
  let cleaned = Aig.cleanup g in
  Alcotest.(check int) "cleanup keeps outputs" 2 (Aig.num_outputs cleaned);
  Alcotest.(check (list bool)) "values" [ false; true ] (Array.to_list (Aig.eval cleaned [| true |]))

(* --- simulation corners --- *)

let test_sim_validation () =
  let g = Aig.create ~num_inputs:1 in
  Aig.add_output g (Aig.input g 0);
  expect_invalid "zero words" (fun () -> Aig.Sim.create g ~words:0);
  let sim = Aig.Sim.create g ~words:1 in
  expect_invalid "bit range" (fun () -> Aig.Sim.set_input_bit sim ~input:0 ~bit:64 true);
  expect_invalid "input range" (fun () -> Aig.Sim.set_input_word sim ~input:1 ~word:0 1L);
  let wide = Aig.create ~num_inputs:17 in
  Aig.add_output wide (Aig.input wide 0);
  expect_invalid "truth table too wide" (fun () -> Aig.Sim.truth_table wide (Aig.output wide 0))

let test_truth_table_tiny () =
  (* 1-input graph: 2 patterns, rest of the word masked off. *)
  let g = Aig.create ~num_inputs:1 in
  Aig.add_output g (Lit.neg (Aig.input g 0));
  let tt = Aig.Sim.truth_table g (Aig.output g 0) in
  Alcotest.(check int64) "not(x) over 1 var" 1L tt.(0)

(* --- clause / formula corners --- *)

let test_clause_corners () =
  Alcotest.(check int) "empty size" 0 (Clause.size Clause.empty);
  Alcotest.(check int) "max_var of empty" (-1) (Clause.max_var Clause.empty);
  Alcotest.(check bool) "empty unsat" false (Clause.satisfied_by Clause.empty [||]);
  expect_invalid "of_dimacs zero" (fun () -> Lit.of_dimacs 0);
  let c = Clause.of_list [ lit 3 ] in
  Alcotest.(check bool) "hash stable" true (Clause.hash c = Clause.hash (Clause.of_list [ lit 3 ]))

let test_formula_corners () =
  let f = Formula.create () in
  expect_invalid "clause out of range" (fun () -> Formula.clause f 0);
  ignore (Formula.add f Clause.empty);
  Alcotest.(check bool) "empty clause member" true (Formula.mem f Clause.empty);
  Alcotest.(check bool) "unsatisfiable" false (Formula.satisfied_by f [||])

(* --- solver corners --- *)

let test_solver_duplicate_and_subsumed_clauses () =
  let s = Solver.create () in
  let c = Clause.of_list [ lit 0; lit 1 ] in
  Solver.add_clause s c;
  Solver.add_clause s c;
  Solver.add_clause s (Clause.of_list [ lit 0; lit 1; lit 2 ]);
  match Solver.solve s with
  | Solver.Sat model ->
    Alcotest.(check bool) "satisfied" true (model.(0) || model.(1))
  | _ -> Alcotest.fail "expected SAT"

let test_solver_contradictory_assumptions () =
  (* A self-contradictory assumption list is UNSAT-under-assumptions,
     not a usage error: the result carries the trivial final clause
     [~l] for the later of the clashing pair, and the solver stays
     usable. *)
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ lit 0; lit 1 ]);
  (match Solver.solve ~assumptions:[ lit 2; nlit 2 ] s with
  | Solver.Unsat_assuming { clause; pid = _ } ->
    Alcotest.(check bool) "final clause is (x2)" true (Clause.equal clause (Clause.singleton (lit 2)))
  | _ -> Alcotest.fail "expected Unsat_assuming on contradictory assumptions");
  match Solver.solve s with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "solver unusable after contradictory assumptions"

let test_solver_assumption_on_fresh_var () =
  (* Assuming a variable the clauses never mention must be SAT and
     honoured. *)
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ lit 0 ]);
  match Solver.solve ~assumptions:[ nlit 7 ] s with
  | Solver.Sat model ->
    Alcotest.(check bool) "x7 false" false model.(7);
    Alcotest.(check bool) "x0 true" true model.(0)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_add_derived_clause () =
  (* A derived clause participates in solving and its pid (not a leaf)
     lands in proofs. *)
  let s = Solver.create () in
  let proof = Solver.proof s in
  Solver.add_clause s (Clause.of_list [ nlit 0; lit 1 ]);
  Solver.add_clause s (Clause.of_list [ nlit 1; lit 2 ]);
  (* derive (~x0 x2) by hand and register it *)
  let l1 = Proof.Resolution.add_leaf proof (Clause.of_list [ nlit 0; lit 1 ]) in
  let l2 = Proof.Resolution.add_leaf proof (Clause.of_list [ nlit 1; lit 2 ]) in
  let lemma = Clause.of_list [ nlit 0; lit 2 ] in
  let pid = Proof.Resolution.add_chain proof ~clause:lemma ~antecedents:[| l1; l2 |] ~pivots:[| 1 |] in
  Solver.add_derived_clause s lemma pid;
  Solver.add_clause s (Clause.singleton (lit 0));
  Solver.add_clause s (Clause.singleton (nlit 2));
  match Solver.solve s with
  | Solver.Unsat root -> (
    let f = Formula.create () in
    List.iter
      (fun lits -> ignore (Formula.add_list f lits))
      [ [ nlit 0; lit 1 ]; [ nlit 1; lit 2 ]; [ lit 0 ]; [ nlit 2 ] ];
    match Proof.Checker.check proof ~root ~formula:f () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "proof with derived clause rejected: %a" Proof.Checker.pp_error e)
  | _ -> Alcotest.fail "expected UNSAT"

let test_solver_many_incremental_rounds () =
  (* Alternate clause additions and solves; the solver must stay
     consistent through many rounds. *)
  let s = Solver.create () in
  for round = 0 to 30 do
    Solver.add_clause s (Clause.of_list [ nlit round; lit (round + 1) ]);
    match Solver.solve ~assumptions:[ lit 0 ] s with
    | Solver.Sat model ->
      for v = 0 to round + 1 do
        Alcotest.(check bool) "chain propagated" true model.(v)
      done
    | _ -> Alcotest.fail "expected SAT"
  done;
  Solver.add_clause s (Clause.singleton (nlit 31));
  match Solver.solve ~assumptions:[ lit 0 ] s with
  | Solver.Unsat_assuming { clause; _ } ->
    Alcotest.(check bool) "blames x0" true (Clause.mem (nlit 0) clause)
  | _ -> Alcotest.fail "expected Unsat_assuming"

(* --- proof corners --- *)

let test_interpolant_validation () =
  let proof = Proof.Resolution.create () in
  let l = Proof.Resolution.add_leaf proof (Clause.singleton (lit 0)) in
  let a = Formula.create () and b = Formula.create () in
  expect_invalid "non-refutation root" (fun () ->
      Proof.Interpolant.compute proof ~root:l ~a ~b)

let test_rup_malformed () =
  let f = Formula.create () in
  (match Proof.Rup.check_drup_string f "1 2\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "missing terminator accepted");
  match Proof.Rup.check_drup_string f "1 x 0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad token accepted"

let test_trace_malformed () =
  let expect text =
    match Proof.Export.trace_of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "malformed trace accepted: %S" text
  in
  expect "";
  expect "1 L 1\n";
  (* missing terminator *)
  expect "1 Z 1 0\n";
  (* unknown kind *)
  expect "1 C 5 0 0\n" (* forward/dangling reference *)

(* --- bdd corners --- *)

let test_bdd_ite_and_eval () =
  let t = Bdd.Manager.create ~num_vars:3 () in
  let a = Bdd.Manager.var t 0 and b = Bdd.Manager.var t 1 and c = Bdd.Manager.var t 2 in
  let f = Bdd.Manager.ite t a b c in
  for mask = 0 to 7 do
    let assignment = Array.init 3 (fun i -> (mask lsr i) land 1 = 1) in
    let expected = if assignment.(0) then assignment.(1) else assignment.(2) in
    Alcotest.(check bool) (Printf.sprintf "ite(%d)" mask) expected (Bdd.Manager.eval t f assignment)
  done

(* --- cut enumeration degenerate parameters --- *)

let test_cut_parameter_validation () =
  let g = Circuits.Adder.ripple_carry 2 in
  expect_invalid "k too large" (fun () -> Aig.Cut.enumerate g ~k:7 ~max_cuts:4);
  expect_invalid "k too small" (fun () -> Aig.Cut.enumerate g ~k:0 ~max_cuts:4);
  expect_invalid "max_cuts" (fun () -> Aig.Cut.enumerate g ~k:4 ~max_cuts:0)

(* --- hostile AIGER through the CLI --- *)

let write_temp text =
  let path = Filename.temp_file "cecproof-hostile" ".aag" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

(* Exit code of one [cec_tool] run, its output discarded. *)
let cli_exit_code args =
  let tool = Filename.concat (Filename.dirname Sys.executable_name) "../bin/cec_tool.exe" in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process tool (Array.of_list (tool :: args)) Unix.stdin null null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> Alcotest.failf "cec_tool %s died on a signal" (String.concat " " args)

(* A header M far beyond the body, a latch literal above M and
   negative binary header counts: every subcommand reading them must
   answer with one of its own exit codes (0-4), never an escaped
   exception (cmdliner's 125). *)
let test_cli_hostile_aiger () =
  let huge = write_temp "aag 99999999999 0 0 0 0\n" in
  let latch = write_temp "aag 1 0 1 0 0\n100 0\n" in
  let negative_outputs = write_temp "aig 0 0 0 -1 0\n" in
  let negative_counts = write_temp "aig -5 -5 0 0 0\n" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ huge; latch; negative_outputs; negative_counts ])
    (fun () ->
      List.iter
        (fun args ->
          let code = cli_exit_code args in
          if code > 4 then Alcotest.failf "cec_tool %s exited %d" (String.concat " " args) code)
        [
          [ "cec"; huge; huge ];
          [ "stats"; huge ];
          [ "bmc"; huge ];
          [ "bounded"; latch; latch ];
          [ "bmc"; latch ];
          [ "stats"; negative_outputs ];
          [ "cec"; negative_outputs; negative_outputs ];
          [ "stats"; negative_counts ];
          [ "cec"; negative_counts; negative_counts ];
        ])

(* A binary header's input count has no lines to bound it, and its
   output and AND counts must fit the bytes after the header: past
   [Aiger.max_binary_inputs] inputs, or more outputs and ANDs than
   those bytes hold, the reader answers [Parse_error] before it
   allocates anything, and [cec_tool stats] exits 2 (four billion
   inputs used to escape as [Out_of_memory], exit 125). *)
let test_binary_header_bounds () =
  let cap = Aig.Aiger.max_binary_inputs in
  let rejects what text =
    match Aig.Aiger.of_string text with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Aig.Aiger.Parse_error _ -> ()
  in
  rejects "four billion inputs" "aig 4000000000 4000000000 0 0 0\n";
  rejects "one input over the cap" (Printf.sprintf "aig %d %d 0 0 0\n" (cap + 1) (cap + 1));
  rejects "four billion ANDs" "aig 4000000000 0 0 0 4000000000\n";
  rejects "more ANDs than bytes" "aig 2 0 0 0 2\n\002\001\001";
  rejects "more outputs than bytes" "aig 0 0 0 3 0\n0\n1\n";
  rejects "negative output literal" "aig 1 1 0 1 0\n-1\n";
  Alcotest.(check int) "inputs at the cap" cap
    (Aig.num_inputs (Aig.Aiger.of_string (Printf.sprintf "aig %d %d 0 0 0\n" cap cap)));
  let g = Aig.Aiger.of_string "aig 3 2 0 2 1\n6\n7\n\002\002" in
  Alcotest.(check (pair int int)) "outputs and ANDs that fit" (2, 1) (Aig.num_outputs g, Aig.num_ands g);
  let hostile = write_temp "aig 4000000000 4000000000 0 0 0\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove hostile)
    (fun () -> Alcotest.(check int) "stats exit code" 2 (cli_exit_code [ "stats"; hostile ]))

let suites =
  [
    ( "edge",
      [
        Alcotest.test_case "graph validation" `Quick test_graph_validation;
        Alcotest.test_case "zero-input graph" `Quick test_graph_zero_inputs;
        Alcotest.test_case "constant outputs survive cleanup" `Quick test_graph_output_of_constant;
        Alcotest.test_case "sim validation" `Quick test_sim_validation;
        Alcotest.test_case "tiny truth table" `Quick test_truth_table_tiny;
        Alcotest.test_case "clause corners" `Quick test_clause_corners;
        Alcotest.test_case "formula corners" `Quick test_formula_corners;
        Alcotest.test_case "duplicate clauses" `Quick test_solver_duplicate_and_subsumed_clauses;
        Alcotest.test_case "contradictory assumptions" `Quick test_solver_contradictory_assumptions;
        Alcotest.test_case "assumption on fresh var" `Quick test_solver_assumption_on_fresh_var;
        Alcotest.test_case "add_derived_clause" `Quick test_solver_add_derived_clause;
        Alcotest.test_case "many incremental rounds" `Quick test_solver_many_incremental_rounds;
        Alcotest.test_case "interpolant validation" `Quick test_interpolant_validation;
        Alcotest.test_case "rup malformed" `Quick test_rup_malformed;
        Alcotest.test_case "trace malformed" `Quick test_trace_malformed;
        Alcotest.test_case "bdd ite" `Quick test_bdd_ite_and_eval;
        Alcotest.test_case "cut parameters" `Quick test_cut_parameter_validation;
        Alcotest.test_case "hostile aiger through the cli" `Quick test_cli_hostile_aiger;
        Alcotest.test_case "binary header counts bounded" `Quick test_binary_header_bounds;
      ] );
  ]
