(* Tests for sequential support: transition structures, unrolling,
   AIGER-with-latches round trips, counters and bounded equivalence. *)

module Seq = Aig.Seq
module Cec = Cec_core.Cec

let bits_of_int n width = Array.init width (fun i -> (n lsr i) land 1 = 1)

let int_of_bits bits =
  Array.to_list bits |> List.mapi (fun i b -> if b then 1 lsl i else 0) |> List.fold_left ( + ) 0

(* Reference simulator for a Seq.t: returns per-frame outputs. *)
let simulate seq inputs_per_frame =
  let comb = Seq.transition seq in
  let pos = Seq.num_pos seq in
  let state = ref (Array.make (Seq.num_latches seq) false) in
  List.map
    (fun frame_inputs ->
      let outs = Aig.eval comb (Array.append frame_inputs !state) in
      state := Array.sub outs pos (Seq.num_latches seq);
      Array.sub outs 0 pos)
    inputs_per_frame

let test_unroll_matches_simulation () =
  let seq = Circuits.Counters.binary_counter 4 in
  let frames = 6 in
  let unrolled = Seq.unroll seq ~frames in
  Alcotest.(check int) "inputs" frames (Aig.num_inputs unrolled);
  Alcotest.(check int) "outputs" (frames * 4) (Aig.num_outputs unrolled);
  let rng = Support.Rng.create 8 in
  for _ = 1 to 30 do
    let stimulus = List.init frames (fun _ -> [| Support.Rng.bool rng |]) in
    let expected = simulate seq stimulus in
    let flat = Array.concat stimulus in
    let outs = Aig.eval unrolled flat in
    List.iteri
      (fun f frame_out ->
        Array.iteri
          (fun o v ->
            if outs.((f * 4) + o) <> v then Alcotest.failf "frame %d output %d differs" f o)
          frame_out)
      expected
  done

let test_binary_counter_counts () =
  let width = 4 in
  let seq = Circuits.Counters.binary_counter width in
  let frames = 20 in
  let stimulus = List.init frames (fun _ -> [| true |]) in
  let outputs = simulate seq stimulus in
  List.iteri
    (fun f out ->
      Alcotest.(check int) (Printf.sprintf "count at frame %d" f) (f mod 16) (int_of_bits out))
    outputs

let test_gray_counters_equivalent () =
  let a = Circuits.Counters.gray_output_binary_counter 4 in
  let b = Circuits.Counters.gray_state_counter 4 in
  match (Cec.check_bounded ~frames:8 (Cec.Sweeping Cec_core.Sweep.default_config) a b).Cec.verdict with
  | Cec.Equivalent cert -> (
    match Cec_core.Certify.validate cert with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "bounded certificate rejected: %a" Cec_core.Certify.pp_error e)
  | Cec.Inequivalent _ -> Alcotest.fail "gray counters must agree"
  | Cec.Undecided -> Alcotest.fail "undecided"

let test_bounded_detects_divergence () =
  (* A corrupted next-state function agrees at frame 1 (outputs read
     the reset state) but diverges later. *)
  let good = Circuits.Counters.binary_counter 3 in
  let bad =
    let g = Aig.create ~num_inputs:4 in
    let enable = Aig.input g 0 in
    let state = Array.init 3 (fun i -> Aig.input g (1 + i)) in
    Array.iter (Aig.add_output g) state;
    (* next bit 1 is corrupted: ignores the carry chain *)
    let carry = ref enable in
    Array.iteri
      (fun i bit ->
        let next = if i = 1 then bit else Aig.xor_ g bit !carry in
        carry := Aig.and_ g bit !carry;
        Aig.add_output g next)
      state;
    Aig.Seq.create g ~num_pis:1 ~num_latches:3
  in
  let engine = Cec.Monolithic in
  (match (Cec.check_bounded ~frames:1 engine good bad).Cec.verdict with
  | Cec.Equivalent _ -> ()
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.fail "frame 1 reads only the reset state");
  match (Cec.check_bounded ~frames:3 engine good bad).Cec.verdict with
  | Cec.Inequivalent trace ->
    (* the witness really distinguishes the unrollings *)
    let ua = Aig.Seq.unroll good ~frames:3 and ub = Aig.Seq.unroll bad ~frames:3 in
    Alcotest.(check bool) "witness distinguishes" true (Aig.eval ua trace <> Aig.eval ub trace)
  | Cec.Equivalent _ -> Alcotest.fail "divergence missed"
  | Cec.Undecided -> Alcotest.fail "undecided"

let test_lfsr_period () =
  (* x^4 + x^3 + 1 (taps 0b1100 over 4 bits) is maximal: period 15
     through nonzero states; our zero-escape makes 16 total. *)
  let seq = Circuits.Counters.lfsr ~taps:0b1100 4 in
  let stimulus = List.init 20 (fun _ -> [||]) in
  let states = List.map int_of_bits (simulate seq stimulus) in
  let first = List.hd states in
  Alcotest.(check int) "reset state observed" 0 first;
  (* all 4-bit values appear within 16 frames *)
  let seen = Hashtbl.create 16 in
  List.iteri (fun i s -> if i < 16 then Hashtbl.replace seen s ()) states;
  Alcotest.(check int) "full period with zero escape" 16 (Hashtbl.length seen)

let test_seq_aiger_roundtrip () =
  let seq = Circuits.Counters.gray_state_counter 4 in
  let seq' = Seq.of_aiger_string (Seq.to_aiger_string seq) in
  Alcotest.(check int) "pis" (Seq.num_pis seq) (Seq.num_pis seq');
  Alcotest.(check int) "latches" (Seq.num_latches seq) (Seq.num_latches seq');
  Alcotest.(check int) "pos" (Seq.num_pos seq) (Seq.num_pos seq');
  (* behavioural agreement over a random run *)
  let rng = Support.Rng.create 9 in
  let stimulus = List.init 12 (fun _ -> [| Support.Rng.bool rng |]) in
  Alcotest.(check bool) "same traces" true (simulate seq stimulus = simulate seq' stimulus)

let test_seq_aiger_errors () =
  let expect text =
    match Seq.of_aiger_string text with
    | exception Seq.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" text
  in
  expect "";
  expect "aag 2 1 1 0 0\n2\n4 2 1\n";
  (* reset-to-1 unsupported *)
  expect "aag 2 1 1 0 0\n2\n5 2\n";
  (* complemented latch literal *)
  expect "aag 1 0 1 0 0\n100 0\n";
  (* latch variable above M *)
  expect "aag -1 0 0 0 0\n" (* negative header count *)

(* M bounds variable indices but sizes nothing: a huge M over an
   empty body parses, and index gaps (M above I + L + A) stay legal. *)
let test_seq_aiger_sparse_variables () =
  let huge = Seq.of_aiger_string "aag 99999999999 0 0 0 0\n" in
  Alcotest.(check int) "no latches" 0 (Seq.num_latches huge);
  (* input 1, latch 4 with next state 5 = 4 & ~1, output 5; variables
     2, 3, 6..9 are unused *)
  let seq = Seq.of_aiger_string "aag 9 1 1 1 1\n2\n8 10\n10\n10 8 3\n" in
  Alcotest.(check int) "one input" 1 (Seq.num_pis seq);
  Alcotest.(check int) "one latch" 1 (Seq.num_latches seq);
  Alcotest.(check int) "one output" 1 (Seq.num_pos seq);
  Alcotest.(check int) "one AND" 1 (Aig.num_ands (Seq.transition seq))

let test_combinational_reader_still_rejects_latches () =
  match Aig.Aiger.of_string "aag 2 1 1 0 0\n2\n4 2\n" with
  | exception Aig.Aiger.Parse_error _ -> ()
  | _ -> Alcotest.fail "combinational reader accepted a latch"

let base_suites =
  [
    ( "seq",
      [
        Alcotest.test_case "unroll matches simulation" `Quick test_unroll_matches_simulation;
        Alcotest.test_case "binary counter counts" `Quick test_binary_counter_counts;
        Alcotest.test_case "gray counters bounded-equivalent" `Quick test_gray_counters_equivalent;
        Alcotest.test_case "bounded divergence detected" `Quick test_bounded_detects_divergence;
        Alcotest.test_case "lfsr period" `Quick test_lfsr_period;
        Alcotest.test_case "seq aiger roundtrip" `Quick test_seq_aiger_roundtrip;
        Alcotest.test_case "seq aiger errors" `Quick test_seq_aiger_errors;
        Alcotest.test_case "seq aiger sparse variables" `Quick test_seq_aiger_sparse_variables;
        Alcotest.test_case "combinational reader rejects latches" `Quick
          test_combinational_reader_still_rejects_latches;
      ] );
  ]

(* --- bounded safety (BMC) --- *)

let test_bmc_counter_reach () =
  (* Property: 3-bit counter with enable reaches 7.  Bad-state flag =
     (state = 7).  Reachable at frame 8 (7 increments after reset
     frame), not before. *)
  let width = 3 in
  let g = Aig.create ~num_inputs:(1 + width) in
  let enable = Aig.input g 0 in
  let state = Array.init width (fun i -> Aig.input g (1 + i)) in
  Aig.add_output g (Aig.and_list g (Array.to_list state));
  (* next state: increment when enabled *)
  let carry = ref enable in
  Array.iter
    (fun bit ->
      Aig.add_output g (Aig.xor_ g bit !carry);
      carry := Aig.and_ g bit !carry)
    state;
  let seq = Aig.Seq.create g ~num_pis:1 ~num_latches:width in
  let engine = Cec.Monolithic in
  (match (Cec.check_bounded_safety ~frames:7 engine seq).Cec.verdict with
  | Cec.Equivalent cert -> (
    let leaf_ok = Cnf.Tseitin.miter_mem cert.Cec.miter in
    match Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root ~leaf_ok () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "safety certificate rejected: %a" Proof.Checker.pp_error e)
  | Cec.Inequivalent _ -> Alcotest.fail "7 unreachable within 7 frames"
  | Cec.Undecided -> Alcotest.fail "undecided");
  match (Cec.check_bounded_safety ~frames:8 engine seq).Cec.verdict with
  | Cec.Inequivalent trace ->
    (* the trace must enable counting on at least 7 frames *)
    let enables = Array.to_list trace |> List.filter Fun.id |> List.length in
    Alcotest.(check bool) "trace enables >= 7 increments" true (enables >= 7)
  | Cec.Equivalent _ -> Alcotest.fail "7 must be reachable in 8 frames"
  | Cec.Undecided -> Alcotest.fail "undecided"

let test_bmc_unreachable_code () =
  (* An LFSR never revisits... simpler: flag = state(0) AND NOT
     state(0) is structurally false: safe for any bound, and the
     certificate validates. *)
  let g = Aig.create ~num_inputs:2 in
  let s0 = Aig.input g 1 in
  Aig.add_output g (Aig.and_ g s0 (Aig.Lit.neg s0));
  Aig.add_output g (Aig.xor_ g s0 (Aig.input g 0));
  let seq = Aig.Seq.create g ~num_pis:1 ~num_latches:1 in
  match
    (Cec.check_bounded_safety ~frames:12 (Cec.Sweeping Cec_core.Sweep.default_config) seq).Cec.verdict
  with
  | Cec.Equivalent _ -> ()
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.fail "contradiction flagged reachable"

let bmc_suites =
  [
    ( "seq-bmc",
      [
        Alcotest.test_case "counter reachability bound" `Quick test_bmc_counter_reach;
        Alcotest.test_case "structurally unreachable flag" `Quick test_bmc_unreachable_code;
      ] );
  ]

let suites = base_suites @ bmc_suites
