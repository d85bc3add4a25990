(* Differential harness for the two sweeping engine modes.

   The per-pair engine (one solver reset before every query, lift +
   import) and the incremental engine (one persistent solver whose proof store is the
   global proof) must be observationally identical: same verdicts on
   every instance, certificates that pass both the random-access and
   the streaming checker, and counterexamples that replay on the miter.
   The incremental proof additionally gets a structural audit — chain
   ids are global to the instance, so a certificate must never cite a
   node that was not already proved (no forward references, no
   assumption leaves, no leaves outside the miter CNF). *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel
module Certify = Cec_core.Certify
module R = Proof.Resolution
module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Suite = Circuits.Suite

let cfg mode = { Sweep.default_config with Sweep.mode }
let engine mode = Cec.Sweeping (cfg mode)
let modes = [ Sweep.Perpair; Sweep.Incremental ]
let mname = Sweep.mode_to_string

let verdict_of = function
  | Cec.Equivalent _ -> "eq"
  | Cec.Inequivalent _ -> "neq"
  | Cec.Undecided -> "undecided"

(* Certificate must pass the random-access checker against a rebuilt
   miter AND, re-encoded as a CECB binary, the bounded-memory streaming
   checker against its own formula. *)
let check_certificate ~what golden revised (cert : Cec.certificate) =
  (match Certify.validate_against cert golden revised with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: certificate rejected: %a" what Certify.pp_error e);
  let data = Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root in
  match Proof.Stream_check.check ~formula:cert.Cec.formula data with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: streaming checker rejected: %s" what e.Proof.Stream_check.reason

let replay_cex ~what golden revised cex =
  let miter = Aig.Miter.build golden revised in
  let sim = Aig.Sim.create miter ~words:1 in
  Array.iteri (fun i b -> Aig.Sim.set_input_bit sim ~input:i ~bit:0 b) cex;
  Aig.Sim.run sim;
  if not (Aig.Sim.lit_bit sim (Aig.output miter 0) ~bit:0) then
    Alcotest.failf "%s: counterexample does not drive the miter" what

(* Run both modes on a pair and cross-check everything observable. *)
let differential ~name golden revised =
  let reports =
    List.map (fun m -> (m, (Cec.check (engine m) golden revised).Cec.verdict)) modes
  in
  (match reports with
  | [ (_, a); (_, b) ] ->
    if verdict_of a <> verdict_of b then
      Alcotest.failf "%s: verdicts differ: perpair=%s incr=%s" name (verdict_of a) (verdict_of b)
  | _ -> assert false);
  List.iter
    (fun (m, verdict) ->
      let what = Printf.sprintf "%s/%s" name (mname m) in
      match verdict with
      | Cec.Equivalent cert -> check_certificate ~what golden revised cert
      | Cec.Inequivalent cex -> replay_cex ~what golden revised cex
      | Cec.Undecided -> Alcotest.failf "%s: undecided" what)
    reports

(* --- fixed golden circuits --- *)

let test_small_suite_differential () =
  List.iter
    (fun (case : Suite.case) ->
      differential ~name:case.Suite.name (case.Suite.golden ()) (case.Suite.revised ()))
    Suite.small;
  (* Wide equality comparators, tree against linear reduction: their
     AND-reduction nodes look constant under random simulation, so
     most candidates are false and each is refuted by a SAT
     countermodel. *)
  List.iter
    (fun width ->
      differential
        ~name:(Printf.sprintf "eq%d" width)
        (Circuits.Datapath.equality ~tree:true width)
        (Circuits.Datapath.equality ~tree:false width))
    [ 16; 32 ]

let test_inequivalent_fixtures () =
  (* Negated outputs and a single corrupted gate: both modes must find
     a counterexample that replays on the miter. *)
  let negated () =
    let golden = Circuits.Adder.ripple_carry 4 in
    let revised = Circuits.Adder.ripple_carry 4 in
    Aig.set_output revised 0 (Aig.Lit.neg (Aig.output revised 0));
    ("negated-add4", golden, revised)
  in
  let negated_comparator () =
    let golden = Circuits.Datapath.equality ~tree:true 12 in
    let revised = Circuits.Datapath.equality ~tree:false 12 in
    Aig.set_output revised 0 (Aig.Lit.neg (Aig.output revised 0));
    ("negated-eq12", golden, revised)
  in
  let corrupted () =
    let golden = Circuits.Multiplier.array 3 in
    let revised = Circuits.Multiplier.array 3 in
    let o = Aig.num_outputs revised - 1 in
    Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o));
    ("corrupted-mul3", golden, revised)
  in
  List.iter
    (fun (name, g, r) -> differential ~name g r)
    [ negated (); negated_comparator (); corrupted () ]

(* --- random AIG pairs (qcheck) --- *)

let qtest ?(count = 25) name prop =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.nat in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let random_pair seed =
  let num_inputs = 4 + (seed mod 3) in
  let num_outputs = 1 + (seed mod 3) in
  let golden =
    Circuits.Random_aig.generate
      (Support.Rng.create (1 + seed))
      ~num_inputs ~num_ands:(20 + (seed mod 30)) ~num_outputs
  in
  let revised = Circuits.Rewrite.restructure (Support.Rng.create (7 * seed)) golden in
  if seed mod 3 = 2 then begin
    let o = seed mod Aig.num_outputs revised in
    Aig.set_output revised o (Aig.Lit.neg (Aig.output revised o))
  end;
  (golden, revised)

let prop_random_differential =
  qtest "perpair/incr agree on random pairs" (fun seed ->
      let golden, revised = random_pair seed in
      differential ~name:(Printf.sprintf "random-%d" seed) golden revised;
      true)

(* --- incremental chain-id integrity --- *)

(* Scan an incremental certificate: walking the reachable cone of the
   root, every chain may cite only ids strictly below its own (already
   proved when the chain was logged), no assumption leaf may survive
   into the certificate, and every leaf clause must belong to the miter
   CNF.  This is the structural contract that lets the streaming
   checker work in one pass, and the property the interleaved
   lemma insertion of the incremental engine could most plausibly
   break. *)
let audit_incremental_proof ~what (cert : Cec.certificate) =
  let proved = Hashtbl.create 256 in
  Array.iter
    (fun id ->
      (match R.node cert.Cec.proof id with
      | R.Leaf { assumption = true; _ } -> Alcotest.failf "%s: assumption leaf reachable" what
      | R.Leaf { clause; _ } ->
        if not (Formula.mem cert.Cec.formula clause) then
          Alcotest.failf "%s: leaf outside the miter CNF" what
      | R.Chain { antecedents; _ } ->
        Array.iter
          (fun a ->
            if a >= id then Alcotest.failf "%s: chain %d cites forward id %d" what id a;
            if not (Hashtbl.mem proved a) then
              Alcotest.failf "%s: chain %d cites unproved id %d" what id a)
          antecedents);
      Hashtbl.replace proved id ())
    (R.reachable cert.Cec.proof ~root:cert.Cec.root)

let incremental_cert golden revised =
  match (Cec.check (engine Sweep.Incremental) golden revised).Cec.verdict with
  | Cec.Equivalent cert -> Some cert
  | Cec.Inequivalent _ | Cec.Undecided -> None

let prop_incremental_chain_ids =
  qtest "incremental certificates cite only proved ids" (fun seed ->
      let golden, revised = random_pair seed in
      (match incremental_cert golden revised with
      | Some cert -> audit_incremental_proof ~what:(Printf.sprintf "random-%d" seed) cert
      | None -> ());
      true)

(* --- corruption fuzz over the incremental trace --- *)

(* A fixed incremental certificate with plenty of chains. *)
let incr_trace =
  lazy
    (let case = Option.get (Suite.find "mul3-arr-sa") in
     match incremental_cert (case.Suite.golden ()) (case.Suite.revised ()) with
     | Some cert -> Proof.Export.trace_to_string cert.Cec.proof ~root:cert.Cec.root
     | None -> failwith "fuzz setup failed")

(* Rewrite one chain line's first antecedent to a forward (hence
   unproved) id; the parser must refuse to build the store. *)
let prop_incremental_trace_fuzz =
  qtest "corrupted incremental trace is rejected" (fun seed ->
      let text = Lazy.force incr_trace in
      let lines = String.split_on_char '\n' text in
      let chains =
        List.filteri (fun _ l -> String.length l > 0) lines
        |> List.filter (fun l ->
               match String.split_on_char ' ' l with _ :: "C" :: _ -> true | _ -> false)
      in
      let victim = List.nth chains (seed mod List.length chains) in
      let corrupted_line =
        match String.split_on_char ' ' victim with
        | id :: "C" :: _ante :: rest ->
          (* Cite an id past the end of the store: a node nobody has
             proved.  [9999999] exceeds every id in this trace. *)
          String.concat " " (id :: "C" :: "9999999" :: rest)
        | _ -> assert false
      in
      let corrupted =
        String.concat "\n" (List.map (fun l -> if l = victim then corrupted_line else l) lines)
      in
      (match Proof.Export.trace_of_string corrupted with
      | exception Failure _ -> ()
      | _proof, _root -> Alcotest.fail "trace citing an unproved id accepted");
      true)

(* --- contradictory assumptions regression (solver level) --- *)

let lit v = Aig.Lit.of_var v
let nlit v = Aig.Lit.neg (Aig.Lit.of_var v)

let test_contradictory_assumptions_regression () =
  let module Solver = Sat.Solver in
  (* Longer lists, either order, with unrelated assumptions around the
     clash: always a clean Unsat_assuming, never an exception, and the
     trivial final clause's pid is an assumption leaf (so it can never
     be laundered into a checkable certificate). *)
  List.iter
    (fun assumptions ->
      let s = Solver.create () in
      Solver.add_clause s (Clause.of_list [ lit 0; lit 1 ]);
      match Solver.solve ~assumptions s with
      | Solver.Unsat_assuming { clause; pid } -> (
        Alcotest.(check int) "unit final clause" 1 (Clause.size clause);
        match R.node (Solver.proof s) pid with
        | R.Leaf { assumption = true; _ } -> ()
        | R.Leaf _ | R.Chain _ -> Alcotest.fail "trivial clause not an assumption leaf")
      | _ -> Alcotest.fail "expected Unsat_assuming on contradictory assumptions")
    [
      [ lit 2; nlit 2 ];
      [ nlit 2; lit 2 ];
      [ lit 3; lit 2; nlit 2 ];
      [ lit 2; lit 4; nlit 4; nlit 2 ];
    ];
  (* The solver stays usable: the same instance still answers SAT
     afterwards, and a genuine clause-driven Unsat_assuming still
     carries a real derivation. *)
  let s = Solver.create () in
  Solver.add_clause s (Clause.of_list [ nlit 0; lit 1 ]);
  (match Solver.solve ~assumptions:[ lit 0; nlit 0 ] s with
  | Solver.Unsat_assuming _ -> ()
  | _ -> Alcotest.fail "expected Unsat_assuming");
  (match Solver.solve ~assumptions:[ lit 0 ] s with
  | Solver.Sat model ->
    Alcotest.(check bool) "propagated x1" true model.(1)
  | _ -> Alcotest.fail "solver unusable after contradictory assumptions");
  match Solver.solve ~assumptions:[ lit 0; nlit 1 ] s with
  | Solver.Unsat_assuming { clause; pid } ->
    (match R.node (Solver.proof s) pid with
    | R.Leaf { assumption = true; _ } -> Alcotest.fail "real refutation logged as assumption"
    | R.Leaf _ | R.Chain _ -> ());
    Alcotest.(check bool) "clause over negated assumptions" true
      (Clause.fold (fun acc l -> acc && (l = nlit 0 || l = lit 1)) true clause)
  | _ -> Alcotest.fail "expected clause-driven Unsat_assuming"

(* --- per-pair engines share nothing --- *)

(* Each per-pair engine owns its solver and query proof and resets them
   before every query, so nothing carries from one engine to the next:
   two runs of one miter, with a fraig of another graph in between, give
   the same certificate bytes.  The miter's lemmas include fanin
   clauses of their own nodes, which queries add under the fanin
   clause's leaf. *)
let test_perpair_runs_repeat () =
  let pair name =
    let case = Option.get (Suite.find name) in
    (case.Suite.golden (), case.Suite.revised ())
  in
  let golden, revised = pair "mux5-rewr" in
  let miter = Aig.Miter.build golden revised in
  let certificate () =
    match Sweep.run miter (cfg Sweep.Perpair) with
    | Sweep.Proved { proof; root; _ }, _ -> Proof.Export.trace_to_string proof ~root
    | (Sweep.Disproved _ | Sweep.Unresolved), _ -> Alcotest.fail "mux5-rewr not proved"
  in
  let first = certificate () in
  let other_golden, other_revised = pair "add8-rc-cla" in
  let _, fraig_stats = Sweep.fraig (Aig.Miter.build other_golden other_revised) (cfg Sweep.Perpair) in
  Alcotest.(check bool) "the fraig in between made queries" true (fraig_stats.Sweep.sat_calls > 0);
  Alcotest.(check string) "same trace certificate" first (certificate ())

(* --- full-stack smoke in both modes --- *)

(* The parallel checker and the service engine, each driven once per
   sweep mode.  The service engine's certificate must also pass the
   hinted checker over the hinted encoding, the body the store
   writes. *)
let test_stack_smoke_both_modes () =
  let case = Option.get (Suite.find "add4-rc-cla") in
  let golden = case.Suite.golden () and revised = case.Suite.revised () in
  List.iter
    (fun mode ->
      let what = mname mode in
      let pconfig =
        { Parallel.default_config with Parallel.num_domains = 2; engine = engine mode }
      in
      (match (Parallel.check ~config:pconfig golden revised).Parallel.verdict with
      | Cec.Equivalent cert ->
        check_certificate ~what:("parallel-smoke/" ^ what) golden revised cert
      | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.failf "%s: parallel smoke failed" what);
      let econfig = { Service.Engine.default_config with Service.Engine.engine = engine mode } in
      match (Service.Engine.solve econfig golden revised).Service.Engine.verdict with
      | Cec.Equivalent cert -> (
        check_certificate ~what:("service-smoke/" ^ what) golden revised cert;
        let body =
          Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
            ~root:cert.Cec.root
        in
        match Proof.Hint_check.check ~formula:cert.Cec.formula body with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s: hinted checker rejected the service certificate: %a" what
            Proof.Hint_check.pp_error e)
      | Cec.Inequivalent _ | Cec.Undecided ->
        Alcotest.failf "%s: service engine smoke failed" what)
    modes

let suites =
  [
    ( "sweep-differential",
      [
        Alcotest.test_case "small suite, both modes" `Slow test_small_suite_differential;
        Alcotest.test_case "inequivalent fixtures replay" `Quick test_inequivalent_fixtures;
        Alcotest.test_case "contradictory assumptions" `Quick
          test_contradictory_assumptions_regression;
        Alcotest.test_case "stack smoke in both modes" `Quick test_stack_smoke_both_modes;
        Alcotest.test_case "per-pair runs repeat around a fraig" `Quick test_perpair_runs_repeat;
        prop_random_differential;
        prop_incremental_chain_ids;
        prop_incremental_trace_fuzz;
      ] );
  ]
