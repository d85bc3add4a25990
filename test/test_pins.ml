(* Pins of certificate bytes and counters.

   For five suite rows in both sweep modes, the MD5 of the trimmed
   trace export of [Cec.check]'s certificate and every counter the run
   records; for one inequivalent pair, the counterexample.  Work meant
   to keep search identical (solver data layout, proof bookkeeping,
   query setup) must leave all of them alone; work that changes search
   re-records them, and the diff of this file shows what moved.

   The domain test runs sweeps of both modes on two domains at once:
   each must give the certificate and counters it gives alone, which
   fails if an engine, solver or proof store keeps scratch that another
   one can reach. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep

let engine mode = Cec.Sweeping { Sweep.default_config with Sweep.mode }

let suite_case name =
  match Circuits.Suite.find name with
  | Some c -> c
  | None -> Alcotest.failf "suite case %s missing" name

(* The trimmed trace's digest (or the verdict, when not equivalent) and
   the run's counters, in a registry of its own. *)
let run mode golden revised =
  let reg = Obs.Registry.create () in
  let report = Obs.with_ambient reg (fun () -> Cec.check (engine mode) golden revised) in
  let outcome =
    match report.Cec.verdict with
    | Cec.Equivalent cert ->
      let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
      Digest.to_hex (Digest.string (Proof.Export.trace_to_string trimmed ~root))
    | Cec.Inequivalent cex ->
      "cex " ^ String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") cex))
    | Cec.Undecided -> "undecided"
  in
  (outcome, Obs.Registry.counters reg)

let run_case mode name =
  let case = suite_case name in
  run mode (case.golden ()) (case.revised ())

(* Row, mode, trace MD5, counters. *)
let pins =
  [
    ( "add8-rc-cla",
      Sweep.Perpair,
      "d49a143c76ac34f1e10c96e8d1639a7d",
      [
        ("proof.chains", 291);
        ("proof.leaves", 12069);
        ("proof.lift_nodes", 872);
        ("proof.lifts", 66);
        ("sat.clauses_carried", 0);
        ("sat.conflicts", 98);
        ("sat.decisions", 727);
        ("sat.propagations", 1960);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 23);
        ("sweep.incremental_reuse", 0);
        ("sweep.lemmas", 65);
        ("sweep.merges", 21);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 69);
        ("sweep.sat_cex", 2);
        ("sweep.sat_refuted", 67);
        ("sweep.sim_refinements", 2);
      ] );
    ( "add8-rc-cla",
      Sweep.Incremental,
      "66bc7ed77e5aa96ff19ee2a6779ef86a",
      [
        ("proof.chains", 90);
        ("proof.leaves", 452);
        ("sat.clauses_carried", 1851);
        ("sat.conflicts", 57);
        ("sat.decisions", 209);
        ("sat.propagations", 1430);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 23);
        ("sweep.incremental_reuse", 11);
        ("sweep.lemmas", 65);
        ("sweep.merges", 21);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 58);
        ("sweep.sat_cex", 2);
        ("sweep.sat_refuted", 56);
        ("sweep.sim_refinements", 2);
      ] );
    ( "mux5-rewr",
      Sweep.Perpair,
      "f6dad64e616d13d55675fc8349438235",
      [
        ("proof.chains", 577);
        ("proof.leaves", 23697);
        ("proof.lift_nodes", 1343);
        ("proof.lifts", 199);
        ("sat.clauses_carried", 0);
        ("sat.conflicts", 199);
        ("sat.decisions", 0);
        ("sat.propagations", 1007);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 5);
        ("sweep.incremental_reuse", 0);
        ("sweep.lemmas", 199);
        ("sweep.merges", 97);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 200);
        ("sweep.sat_cex", 0);
        ("sweep.sat_refuted", 200);
        ("sweep.sim_refinements", 0);
      ] );
    ( "mux5-rewr",
      Sweep.Incremental,
      "843498478b6c5d9be557108d152e7bff",
      [
        ("proof.chains", 198);
        ("proof.leaves", 698);
        ("sat.clauses_carried", 9229);
        ("sat.conflicts", 99);
        ("sat.decisions", 0);
        ("sat.propagations", 1808);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 5);
        ("sweep.incremental_reuse", 1);
        ("sweep.lemmas", 199);
        ("sweep.merges", 97);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 199);
        ("sweep.sat_cex", 0);
        ("sweep.sat_refuted", 199);
        ("sweep.sim_refinements", 0);
      ] );
    ( "mul4-booth-arr",
      Sweep.Perpair,
      "306c10238d04a343b9be90c2936ae748",
      [
        ("proof.chains", 3101);
        ("proof.leaves", 38967);
        ("proof.lift_nodes", 7457);
        ("proof.lifts", 108);
        ("sat.clauses_carried", 0);
        ("sat.conflicts", 1183);
        ("sat.decisions", 4698);
        ("sat.propagations", 75008);
        ("sat.restarts", 6);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 38);
        ("sweep.incremental_reuse", 0);
        ("sweep.lemmas", 108);
        ("sweep.merges", 35);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 109);
        ("sweep.sat_cex", 0);
        ("sweep.sat_refuted", 109);
        ("sweep.sim_refinements", 0);
      ] );
    ( "mul4-booth-arr",
      Sweep.Incremental,
      "38859801efd55bdcebf42a5984c2bdbf",
      [
        ("proof.chains", 810);
        ("proof.leaves", 992);
        ("sat.clauses_carried", 17542);
        ("sat.conflicts", 756);
        ("sat.decisions", 958);
        ("sat.propagations", 62932);
        ("sat.restarts", 3);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 38);
        ("sweep.incremental_reuse", 15);
        ("sweep.lemmas", 108);
        ("sweep.merges", 35);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 94);
        ("sweep.sat_cex", 0);
        ("sweep.sat_refuted", 94);
        ("sweep.sim_refinements", 0);
      ] );
    ( "prio24-rewr",
      Sweep.Perpair,
      "76abb82c4675892bbbeba679c953b431",
      [
        ("proof.chains", 964);
        ("proof.leaves", 73706);
        ("proof.lift_nodes", 2644);
        ("proof.lifts", 299);
        ("sat.clauses_carried", 0);
        ("sat.conflicts", 326);
        ("sat.decisions", 5372);
        ("sat.propagations", 10668);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 35);
        ("sweep.incremental_reuse", 0);
        ("sweep.lemmas", 297);
        ("sweep.merges", 131);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 316);
        ("sweep.sat_cex", 16);
        ("sweep.sat_refuted", 300);
        ("sweep.sim_refinements", 16);
      ] );
    ( "prio24-rewr",
      Sweep.Incremental,
      "36f7c106182d6f9f4c9f60cf123311dc",
      [
        ("proof.chains", 317);
        ("proof.leaves", 794);
        ("sat.clauses_carried", 18550);
        ("sat.conflicts", 158);
        ("sat.decisions", 4012);
        ("sat.propagations", 18257);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 35);
        ("sweep.incremental_reuse", 11);
        ("sweep.lemmas", 297);
        ("sweep.merges", 131);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 305);
        ("sweep.sat_cex", 16);
        ("sweep.sat_refuted", 289);
        ("sweep.sim_refinements", 16);
      ] );
    ( "rand300-rewr",
      Sweep.Perpair,
      "6a3453de9246585b6bf45d3fa1b19831",
      [
        ("proof.chains", 2453);
        ("proof.leaves", 94770);
        ("proof.lift_nodes", 6073);
        ("proof.lifts", 851);
        ("sat.clauses_carried", 0);
        ("sat.conflicts", 851);
        ("sat.decisions", 0);
        ("sat.propagations", 6311);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 119);
        ("sweep.incremental_reuse", 0);
        ("sweep.lemmas", 851);
        ("sweep.merges", 366);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 852);
        ("sweep.sat_cex", 0);
        ("sweep.sat_refuted", 852);
        ("sweep.sim_refinements", 0);
      ] );
    ( "rand300-rewr",
      Sweep.Incremental,
      "c5cc943276a06dbc5c6cbc0e5c8422f3",
      [
        ("proof.chains", 814);
        ("proof.leaves", 2375);
        ("sat.clauses_carried", 117849);
        ("sat.conflicts", 354);
        ("sat.decisions", 0);
        ("sat.propagations", 34679);
        ("sat.restarts", 0);
        ("sat.retired_chains", 0);
        ("sweep.const_merges", 119);
        ("sweep.incremental_reuse", 72);
        ("sweep.lemmas", 851);
        ("sweep.merges", 366);
        ("sweep.sat_budget", 0);
        ("sweep.sat_calls", 780);
        ("sweep.sat_cex", 0);
        ("sweep.sat_refuted", 780);
        ("sweep.sim_refinements", 0);
      ] );
  ]

(* eq8 against lt8: input bits in order, 1 for true. *)
let cex_pins =
  [ (Sweep.Perpair, "cex 0000000011111111"); (Sweep.Incremental, "cex 0000000000000001") ]

let test_pin (name, mode, md5, counters) () =
  let outcome, actual = run_case mode name in
  Alcotest.(check string) "trimmed trace MD5" md5 outcome;
  Alcotest.(check (list (pair string int))) "counters" counters actual

let test_cex_pins () =
  List.iter
    (fun (mode, expected) ->
      let outcome, _ =
        run mode (Circuits.Datapath.equality ~tree:true 8) (Circuits.Datapath.less_than 8)
      in
      Alcotest.(check string) (Sweep.mode_to_string mode) expected outcome)
    cex_pins

(* Two sweeps of each mode, split over two domains so that a per-pair
   and an incremental engine run on each at once. *)
let test_domains () =
  let jobs = [ (Sweep.Perpair, "mul4-booth-arr"); (Sweep.Incremental, "prio24-rewr") ] in
  let jobs' = [ (Sweep.Incremental, "mul4-booth-arr"); (Sweep.Perpair, "rand300-rewr") ] in
  let alone = List.map (fun (mode, name) -> run_case mode name) (jobs @ jobs') in
  for _ = 1 to 3 do
    let other = Domain.spawn (fun () -> List.map (fun (mode, name) -> run_case mode name) jobs') in
    let here = List.map (fun (mode, name) -> run_case mode name) jobs in
    let together = here @ Domain.join other in
    List.iter2
      (fun ((mode, name), (md5, counters)) (md5', counters') ->
        let what = name ^ "/" ^ Sweep.mode_to_string mode in
        Alcotest.(check string) (what ^ " certificate") md5 md5';
        Alcotest.(check (list (pair string int))) (what ^ " counters") counters counters')
      (List.combine (jobs @ jobs') alone)
      together
  done

let suites =
  [
    ( "cert-pins",
      List.map
        (fun ((name, mode, _, _) as pin) ->
          Alcotest.test_case (name ^ " " ^ Sweep.mode_to_string mode) `Quick (test_pin pin))
        pins
      @ [ Alcotest.test_case "eq8-lt8 counterexamples" `Quick test_cex_pins ] );
    ( "domain-safety",
      [ Alcotest.test_case "sweeps on two domains match sweeps alone" `Quick test_domains ] );
  ]
