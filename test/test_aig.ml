(* Tests for the AIG package: literals, graph construction and
   strashing, simulation vs. the reference evaluator, cones, AIGER
   round trips and miters.  Property-based tests draw random graphs. *)

module Lit = Aig.Lit
module Sim = Aig.Sim
module Rng = Support.Rng

(* A reusable QCheck generator of small random AIGs. *)
let arbitrary_aig ?(max_inputs = 6) ?(max_ands = 40) () =
  let open QCheck in
  let gen =
    Gen.map3
      (fun seed ni na ->
        Circuits.Random_aig.generate (Rng.create seed) ~num_inputs:(1 + ni) ~num_ands:na
          ~num_outputs:2)
      Gen.nat (Gen.int_bound (max_inputs - 1)) (Gen.int_bound max_ands)
  in
  make ~print:(fun g -> Aig.Aiger.to_string g) gen

let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* --- Lit --- *)

let test_lit_roundtrip () =
  for v = 0 to 20 do
    List.iter
      (fun neg ->
        let l = Lit.make v ~neg in
        Alcotest.(check int) "var" v (Lit.var l);
        Alcotest.(check bool) "neg" neg (Lit.is_neg l);
        Alcotest.(check int) "double neg" l (Lit.neg (Lit.neg l));
        Alcotest.(check int) "dimacs roundtrip" l (Lit.of_dimacs (Lit.to_dimacs l)))
      [ false; true ]
  done

let test_lit_constants () =
  Alcotest.(check int) "false is lit 0" 0 Lit.false_;
  Alcotest.(check int) "true is lit 1" 1 Lit.true_;
  Alcotest.(check int) "true = not false" Lit.true_ (Lit.neg Lit.false_);
  Alcotest.(check bool) "const detection" true (Lit.is_const Lit.true_);
  Alcotest.(check bool) "non const" false (Lit.is_const (Lit.of_var 3))

let test_lit_abs_sign () =
  let l = Lit.make 5 ~neg:true in
  Alcotest.(check int) "abs" (Lit.of_var 5) (Lit.abs l);
  Alcotest.(check int) "apply_sign false" l (Lit.apply_sign l ~neg:false);
  Alcotest.(check int) "apply_sign true" (Lit.neg l) (Lit.apply_sign l ~neg:true)

(* --- Graph construction --- *)

let test_and_simplifications () =
  let g = Aig.create ~num_inputs:2 in
  let a = Aig.input g 0 and b = Aig.input g 1 in
  Alcotest.(check int) "x & false" Lit.false_ (Aig.and_ g a Lit.false_);
  Alcotest.(check int) "x & true" a (Aig.and_ g a Lit.true_);
  Alcotest.(check int) "x & x" a (Aig.and_ g a a);
  Alcotest.(check int) "x & ~x" Lit.false_ (Aig.and_ g a (Lit.neg a));
  let ab = Aig.and_ g a b in
  Alcotest.(check int) "strash hit" ab (Aig.and_ g b a);
  Alcotest.(check int) "one node" 1 (Aig.num_ands g)

let test_derived_gates () =
  let g = Aig.create ~num_inputs:2 in
  let a = Aig.input g 0 and b = Aig.input g 1 in
  let gates =
    [
      ("or", Aig.or_ g a b, [| false; true; true; true |]);
      ("xor", Aig.xor_ g a b, [| false; true; true; false |]);
      ("xnor", Aig.xnor_ g a b, [| true; false; false; true |]);
      ("implies", Aig.implies g a b, [| true; false; true; true |]);
    ]
  in
  List.iter
    (fun (name, l, table) ->
      Array.iteri
        (fun idx expected ->
          let assignment = [| idx land 1 = 1; idx lsr 1 = 1 |] in
          Alcotest.(check bool)
            (Printf.sprintf "%s(%d)" name idx)
            expected (Aig.eval_lit g assignment l))
        table)
    gates

let test_mux () =
  let g = Aig.create ~num_inputs:3 in
  let s = Aig.input g 0 and t = Aig.input g 1 and e = Aig.input g 2 in
  let m = Aig.mux g ~sel:s ~t ~e in
  for idx = 0 to 7 do
    let assignment = [| idx land 1 = 1; (idx lsr 1) land 1 = 1; idx lsr 2 = 1 |] in
    let expected = if assignment.(0) then assignment.(1) else assignment.(2) in
    Alcotest.(check bool) (Printf.sprintf "mux(%d)" idx) expected (Aig.eval_lit g assignment m)
  done

let test_and_or_list () =
  let g = Aig.create ~num_inputs:4 in
  let ins = List.init 4 (Aig.input g) in
  Alcotest.(check int) "empty and" Lit.true_ (Aig.and_list g []);
  Alcotest.(check int) "empty or" Lit.false_ (Aig.or_list g []);
  let all = Aig.and_list g ins and any = Aig.or_list g ins in
  for idx = 0 to 15 do
    let assignment = Array.init 4 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check bool) "and_list" (Array.for_all Fun.id assignment)
      (Aig.eval_lit g assignment all);
    Alcotest.(check bool) "or_list" (Array.exists Fun.id assignment)
      (Aig.eval_lit g assignment any)
  done

let test_levels_depth () =
  let g = Aig.create ~num_inputs:3 in
  let a = Aig.input g 0 and b = Aig.input g 1 and c = Aig.input g 2 in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab c in
  Aig.add_output g abc;
  let levels = Aig.levels g in
  Alcotest.(check int) "input level" 0 levels.(Lit.var a);
  Alcotest.(check int) "ab level" 1 levels.(Lit.var ab);
  Alcotest.(check int) "abc level" 2 levels.(Lit.var abc);
  Alcotest.(check int) "depth" 2 (Aig.depth g)

let prop_check_invariants =
  qtest "graph invariants hold on random graphs" (arbitrary_aig ())
    (fun g ->
      Aig.check g;
      true)

(* --- Simulation --- *)

let prop_sim_matches_eval =
  (* Bit-parallel simulation agrees with the reference evaluator on
     random patterns. *)
  qtest "sim agrees with eval" ~count:50 (arbitrary_aig ()) (fun g ->
      let sim = Sim.create g ~words:2 in
      let rng = Rng.create 31 in
      Sim.randomize_inputs sim rng;
      Sim.run sim;
      let ok = ref true in
      for bit = 0 to 20 do
        let assignment =
          Array.init (Aig.num_inputs g) (fun i -> Sim.lit_bit sim (Aig.input g i) ~bit)
        in
        let outputs = Aig.eval g assignment in
        Array.iteri
          (fun o expected ->
            if Sim.lit_bit sim (Aig.output g o) ~bit <> expected then ok := false)
          outputs
      done;
      !ok)

let prop_truth_table_matches_eval =
  qtest "truth table agrees with eval" ~count:50
    (arbitrary_aig ~max_inputs:5 ~max_ands:25 ())
    (fun g ->
      let out = Aig.output g 0 in
      let tt = Sim.truth_table g out in
      let n = Aig.num_inputs g in
      let ok = ref true in
      for idx = 0 to (1 lsl n) - 1 do
        let assignment = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        let expected = Aig.eval_lit g assignment out in
        let got = Int64.logand (Int64.shift_right_logical tt.(idx / 64) (idx mod 64)) 1L = 1L in
        if expected <> got then ok := false
      done;
      !ok)

let test_truth_table_wide_cone () =
  (* 17 inputs is past the exhaustive-simulation limit: truth_table
     must refuse, and at exactly 16 inputs it must still work. *)
  let wide = Aig.create ~num_inputs:17 in
  Aig.add_output wide (Aig.and_list wide (List.init 17 (Aig.input wide)));
  (match Sim.truth_table wide (Aig.output wide 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truth_table accepted a 17-input graph");
  let limit = Aig.create ~num_inputs:16 in
  Aig.add_output limit (Aig.and_list limit (List.init 16 (Aig.input limit)));
  let tt = Sim.truth_table limit (Aig.output limit 0) in
  Alcotest.(check int) "16-input table spans 1024 words" 1024 (Array.length tt);
  Alcotest.(check int64) "AND of all 16 inputs is true only on the last pattern"
    Int64.min_int tt.(1023)

let test_set_input_bit () =
  let g = Aig.create ~num_inputs:1 in
  Aig.add_output g (Aig.input g 0);
  let sim = Sim.create g ~words:2 in
  Sim.set_input_bit sim ~input:0 ~bit:70 true;
  Sim.run sim;
  Alcotest.(check bool) "bit set" true (Sim.lit_bit sim (Aig.output g 0) ~bit:70);
  Alcotest.(check bool) "other bit clear" false (Sim.lit_bit sim (Aig.output g 0) ~bit:3);
  Sim.set_input_bit sim ~input:0 ~bit:70 false;
  Sim.run sim;
  Alcotest.(check bool) "bit cleared" false (Sim.lit_bit sim (Aig.output g 0) ~bit:70)

(* --- Cones --- *)

let test_cone_support () =
  let g = Aig.create ~num_inputs:4 in
  let a = Aig.input g 0 and b = Aig.input g 1 and c = Aig.input g 2 in
  let ab = Aig.and_ g a b in
  let bc = Aig.and_ g b c in
  Aig.add_output g ab;
  Aig.add_output g bc;
  Alcotest.(check (array int)) "support of ab" [| 0; 1 |] (Aig.Cone.support g [ ab ]);
  Alcotest.(check (array int)) "support of both" [| 0; 1; 2 |] (Aig.Cone.support g [ ab; bc ]);
  (* Inputs a, b, c are nodes 1, 2, 3; ab and bc are nodes 5 and 6. *)
  let marks = Array.make (Aig.num_nodes g) 0 in
  Alcotest.(check (array int)) "cone of ab" [| 1; 2; 5 |] (Aig.Cone.unmarked g ~marks ~mark:1 [ ab ]);
  Alcotest.(check (array int)) "same mark: only the unreached part" [| 3; 6 |]
    (Aig.Cone.unmarked g ~marks ~mark:1 [ Aig.Lit.neg ab; bc ]);
  Alcotest.(check (array int)) "new mark: the whole cone" [| 1; 2; 3; 5; 6 |]
    (Aig.Cone.unmarked g ~marks ~mark:2 [ bc; ab ])

let prop_extract_cone_preserves =
  qtest "extract_cone preserves functions" ~count:50
    (arbitrary_aig ~max_inputs:5 ~max_ands:25 ())
    (fun g ->
      let outs = Array.to_list (Aig.outputs g) in
      let cone = Aig.extract_cone g outs in
      let n = Aig.num_inputs g in
      let ok = ref true in
      for idx = 0 to min 63 ((1 lsl n) - 1) do
        let assignment = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        if Aig.eval g assignment <> Aig.eval cone assignment then ok := false
      done;
      !ok && Aig.num_ands cone <= Aig.num_ands g)

let prop_cleanup_preserves =
  qtest "cleanup preserves functions" ~count:50
    (arbitrary_aig ~max_inputs:5 ~max_ands:25 ())
    (fun g ->
      let cleaned = Aig.cleanup g in
      let n = Aig.num_inputs g in
      let ok = ref true in
      for idx = 0 to min 63 ((1 lsl n) - 1) do
        let assignment = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        if Aig.eval g assignment <> Aig.eval cleaned assignment then ok := false
      done;
      !ok)

(* --- AIGER --- *)

let prop_aiger_roundtrip =
  qtest "aiger text roundtrip" (arbitrary_aig ()) (fun g ->
      let g' = Aig.Aiger.of_string (Aig.Aiger.to_string g) in
      Aig.num_inputs g' = Aig.num_inputs g
      && Aig.num_ands g' = Aig.num_ands g
      && Aig.num_outputs g' = Aig.num_outputs g
      &&
      let n = Aig.num_inputs g in
      let ok = ref true in
      for idx = 0 to min 63 ((1 lsl n) - 1) do
        let assignment = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        if Aig.eval g assignment <> Aig.eval g' assignment then ok := false
      done;
      !ok)

let test_aiger_errors () =
  let expect_error text =
    match Aig.Aiger.of_string text with
    | exception Aig.Aiger.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" text
  in
  expect_error "";
  expect_error "aag 1 1 1 0 0\n2\n2 2\n";
  (* latches *)
  expect_error "aag 1 2 0 0 0\n2\n4\n";
  (* var out of range *)
  expect_error "aag 2 1 0 1 1\n2\n4\n4 6 2\n";
  (* fanin used before definition *)
  expect_error "aag 1 1 0 1 0\n2\n-3\n";
  (* negative literal *)
  expect_error "aag -1 0 0 0 0\n";
  (* negative header count *)
  expect_error "aig 0 0 0 -1 0\n";
  (* negative binary output count *)
  expect_error "aig -5 -5 0 0 0\n" (* negative binary counts, M = I + A *)

(* The header's M bounds variable indices but sizes nothing: a huge M
   over an empty body is an empty graph, and index gaps (M above
   I + A) stay legal. *)
let test_aiger_sparse_variables () =
  let huge = Aig.Aiger.of_string "aag 99999999999 0 0 0 0\n" in
  Alcotest.(check int) "no inputs" 0 (Aig.num_inputs huge);
  Alcotest.(check int) "no outputs" 0 (Aig.num_outputs huge);
  (* variables 1 and 4 are inputs, 5 = 4 & ~1; 2, 3, 6, 7 are unused *)
  let g = Aig.Aiger.of_string "aag 7 2 0 1 1\n2\n8\n10\n10 8 3\n" in
  Alcotest.(check int) "two inputs" 2 (Aig.num_inputs g);
  Alcotest.(check int) "one AND" 1 (Aig.num_ands g);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "b & ~a" (b && not a) (Aig.eval g [| a; b |]).(0))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_aiger_file_io () =
  let g = Circuits.Adder.ripple_carry 3 in
  let path = Filename.temp_file "cecproof" ".aag" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Aig.Aiger.write_file path g;
      let g' = Aig.Aiger.read_file path in
      Alcotest.(check int) "ands preserved" (Aig.num_ands g) (Aig.num_ands g'))

(* Service keys digest the writer's text, so its bytes are part of the
   on-disk contract of every store: any change to them re-keys every
   stored certificate. *)
let test_aiger_writer_bytes () =
  let expected =
    String.concat "\n"
      [
        "aag 17 4 0 3 13"; "2"; "4"; "6"; "8"; "15"; "29"; "35"; "10 6 3"; "12 7 2"; "14 13 11";
        "16 6 2"; "18 8 5"; "20 9 4"; "22 21 19"; "24 22 16"; "26 23 17"; "28 27 25"; "30 23 16";
        "32 8 4"; "34 33 31"; "";
      ]
  in
  let g = Circuits.Adder.ripple_carry 2 in
  Alcotest.(check string) "ripple_carry 2" expected (Aig.Aiger.to_string g);
  let buf = Buffer.create 16 in
  Buffer.add_string buf "prefix ";
  Aig.Aiger.to_buffer buf g;
  Alcotest.(check string) "to_buffer appends the same bytes" ("prefix " ^ expected)
    (Buffer.contents buf)

(* --- Miter --- *)

let test_miter_of_equal_is_const () =
  (* Miter of a circuit with itself folds to constant false
     structurally (shared strashing). *)
  let a = Circuits.Adder.ripple_carry 3 in
  let m = Aig.Miter.build a a in
  Alcotest.(check int) "constant false output" Lit.false_ (Aig.output m 0)

let test_miter_detects_difference () =
  let a = Circuits.Datapath.parity ~tree:true 4 in
  let b = Circuits.Datapath.equality ~tree:true 2 in
  (* parity of 4 inputs vs equality of 2+2: same interface width. *)
  let m = Aig.Miter.build a b in
  Alcotest.(check int) "single output" 1 (Aig.num_outputs m);
  (* 1000: parity=1; eq(10,00)=0 -> miter=1. *)
  Alcotest.(check bool) "differs" true (Aig.eval m [| true; false; false; false |]).(0)

let test_miter_interface_mismatch () =
  let a = Circuits.Adder.ripple_carry 2 and b = Circuits.Adder.ripple_carry 3 in
  match Aig.Miter.build a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let prop_pairwise_miter =
  qtest "pairwise miter has one output per pair" ~count:20
    (arbitrary_aig ~max_inputs:4 ~max_ands:15 ())
    (fun g ->
      let m = Aig.Miter.build_pairwise g g in
      Aig.num_outputs m = Aig.num_outputs g
      && Array.for_all (fun l -> l = Lit.false_) (Aig.outputs m))

let test_append () =
  let sub = Circuits.Datapath.parity ~tree:true 3 in
  let g = Aig.create ~num_inputs:3 in
  let inputs = Array.init 3 (Aig.input g) in
  let out1 = Aig.append g sub ~inputs in
  let out2 = Aig.append g sub ~inputs in
  Alcotest.(check int) "append is hashed" out1.(0) out2.(0)

let base_suites =
  [
    ( "aig",
      [
        Alcotest.test_case "lit roundtrip" `Quick test_lit_roundtrip;
        Alcotest.test_case "lit constants" `Quick test_lit_constants;
        Alcotest.test_case "lit abs/sign" `Quick test_lit_abs_sign;
        Alcotest.test_case "and simplifications" `Quick test_and_simplifications;
        Alcotest.test_case "derived gates" `Quick test_derived_gates;
        Alcotest.test_case "mux" `Quick test_mux;
        Alcotest.test_case "and/or list" `Quick test_and_or_list;
        Alcotest.test_case "levels and depth" `Quick test_levels_depth;
        prop_check_invariants;
        prop_sim_matches_eval;
        prop_truth_table_matches_eval;
        Alcotest.test_case "truth table wide-cone guard" `Quick test_truth_table_wide_cone;
        Alcotest.test_case "set_input_bit" `Quick test_set_input_bit;
        Alcotest.test_case "cone support" `Quick test_cone_support;
        prop_extract_cone_preserves;
        prop_cleanup_preserves;
        prop_aiger_roundtrip;
        Alcotest.test_case "aiger malformed inputs" `Quick test_aiger_errors;
        Alcotest.test_case "aiger sparse variables" `Quick test_aiger_sparse_variables;
        Alcotest.test_case "aiger file io" `Quick test_aiger_file_io;
        Alcotest.test_case "aiger writer bytes pinned" `Quick test_aiger_writer_bytes;
        Alcotest.test_case "miter of identical circuits" `Quick test_miter_of_equal_is_const;
        Alcotest.test_case "miter detects difference" `Quick test_miter_detects_difference;
        Alcotest.test_case "miter interface mismatch" `Quick test_miter_interface_mismatch;
        prop_pairwise_miter;
        Alcotest.test_case "append strashing" `Quick test_append;
      ] );
  ]

(* --- binary AIGER --- *)

let prop_aiger_binary_roundtrip =
  qtest "binary aiger roundtrip" (arbitrary_aig ()) (fun g ->
      let g' = Aig.Aiger.of_string (Aig.Aiger.to_binary_string g) in
      Aig.num_inputs g' = Aig.num_inputs g
      && Aig.num_ands g' = Aig.num_ands g
      && Aig.num_outputs g' = Aig.num_outputs g
      &&
      let n = Aig.num_inputs g in
      let ok = ref true in
      for idx = 0 to min 63 ((1 lsl n) - 1) do
        let assignment = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        if Aig.eval g assignment <> Aig.eval g' assignment then ok := false
      done;
      !ok)

let test_binary_aiger_compact () =
  let g = Circuits.Adder.ripple_carry 16 in
  let ascii = Aig.Aiger.to_string g and binary = Aig.Aiger.to_binary_string g in
  Alcotest.(check bool) "binary is smaller" true (String.length binary < String.length ascii)

let test_binary_aiger_errors () =
  let expect text =
    match Aig.Aiger.of_string text with
    | exception Aig.Aiger.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error"
  in
  expect "aig 3 1 0 1 1\n2\n";
  (* truncated AND section *)
  expect "aig 5 1 0 1 1\n2\n\x01\x00" (* M <> I + A *)

let binary_suites =
  [
    ( "aig-binary",
      [
        prop_aiger_binary_roundtrip;
        Alcotest.test_case "binary is compact" `Quick test_binary_aiger_compact;
        Alcotest.test_case "binary malformed inputs" `Quick test_binary_aiger_errors;
      ] );
  ]

let suites = base_suites @ binary_suites
