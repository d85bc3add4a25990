(* The parallel partitioned engine: agreement with the sequential
   engines over the suite, stitched-certificate validity, determinism
   across domain counts, budget escalation, and partition statuses. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel
module Certify = Cec_core.Certify
module Pstats = Proof.Pstats

let sweeping = Cec.Sweeping Sweep.default_config

let config ?(engine = sweeping) ?budget ?(escalation = 4) ?(max_rounds = 3) num_domains =
  { Parallel.num_domains; engine; budget; escalation; max_rounds }

let check_stitched name golden revised (report : Parallel.report) =
  match report.Parallel.verdict with
  | Cec.Equivalent cert -> (
    (match
       Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root
         ~leaf_ok:(Cnf.Tseitin.miter_mem cert.Cec.miter) ()
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: stitched proof rejected: %a" name Proof.Checker.pp_error e);
    match Certify.validate_against cert golden revised with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: certificate rejected: %a" name Certify.pp_error e)
  | Cec.Inequivalent _ -> Alcotest.failf "%s: spurious counterexample" name
  | Cec.Undecided -> Alcotest.failf "%s: undecided" name

(* Full suite, parallel vs sequential sweeping, stitched certificates
   validated against freshly rebuilt miters. *)
let test_suite_agreement () =
  List.iter
    (fun case ->
      let name = case.Circuits.Suite.name in
      let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
      let seq = (Cec.check sweeping golden revised).Cec.verdict in
      let par = Parallel.check ~config:(config 2) golden revised in
      match seq with
      | Cec.Equivalent _ -> check_stitched name golden revised par
      | Cec.Inequivalent _ | Cec.Undecided ->
        Alcotest.failf "%s: sequential engine failed on a suite case" name)
    Circuits.Suite.default

(* Identical verdicts and identical stitched proofs for every domain
   count. *)
let test_determinism_across_domains () =
  let case = List.hd Circuits.Suite.small in
  let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
  let fingerprint nd =
    let report = Parallel.check ~config:(config nd) golden revised in
    let proof_stats =
      match report.Parallel.verdict with
      | Cec.Equivalent cert -> Some (Pstats.of_root cert.Cec.proof ~root:cert.Cec.root)
      | Cec.Inequivalent _ | Cec.Undecided -> None
    in
    let statuses =
      Array.map (fun p -> p.Parallel.status) report.Parallel.stats.Parallel.partitions
    in
    (proof_stats, statuses, report.Parallel.stats.Parallel.conflicts,
     report.Parallel.stats.Parallel.sat_calls)
  in
  let reference = fingerprint 1 in
  List.iter
    (fun nd ->
      if fingerprint nd <> reference then
        Alcotest.failf "num_domains=%d changed the verdict, proof or statistics" nd)
    [ 1; 2; 3; 4 ]

(* With a tiny initial budget the engine escalates; it must remain
   sound either way and respect max_rounds. *)
let test_budget_escalation () =
  let golden = Circuits.Multiplier.array 3 and revised = Circuits.Multiplier.shift_add 3 in
  let tight = config ~budget:1 ~escalation:2 ~max_rounds:2 2 in
  let report = Parallel.check ~config:tight golden revised in
  Alcotest.(check bool) "at most max_rounds rounds" true
    (report.Parallel.stats.Parallel.rounds <= 2);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "attempts bounded by rounds" true (p.Parallel.attempts <= 2))
    report.Parallel.stats.Parallel.partitions;
  (match report.Parallel.verdict with
  | Cec.Equivalent _ -> check_stitched "escalated" golden revised report
  | Cec.Undecided ->
    let gave_up =
      Array.exists
        (fun p -> p.Parallel.status = Parallel.Gave_up)
        report.Parallel.stats.Parallel.partitions
    in
    Alcotest.(check bool) "undecided implies a gave-up partition" true gave_up
  | Cec.Inequivalent _ -> Alcotest.fail "spurious counterexample under a tight budget");
  (* A generous budget must settle everything in the first round. *)
  let generous = config ~budget:1_000_000 ~max_rounds:3 2 in
  let report = Parallel.check ~config:generous golden revised in
  Alcotest.(check int) "one round suffices" 1 report.Parallel.stats.Parallel.rounds;
  check_stitched "generous" golden revised report

(* An inequivalence is localized to its output partition, and the
   witness is the lowest differing output's counterexample. *)
let test_inequivalent_localization () =
  let golden = Circuits.Adder.ripple_carry 4 in
  let revised = Circuits.Adder.ripple_carry 4 in
  Aig.set_output revised 2 (Aig.Lit.neg (Aig.output revised 2));
  let report = Parallel.check ~config:(config 2) golden revised in
  match report.Parallel.verdict with
  | Cec.Inequivalent cex ->
    let miter = Aig.Miter.build golden revised in
    Alcotest.(check bool) "witness drives the miter" true (Aig.eval miter cex).(0);
    Array.iteri
      (fun o p ->
        if o = 2 then
          Alcotest.(check bool) "corrupted partition refuted" true
            (p.Parallel.status = Parallel.Refuted))
      report.Parallel.stats.Parallel.partitions
  | Cec.Equivalent _ -> Alcotest.fail "inequivalent pair declared equivalent"
  | Cec.Undecided -> Alcotest.fail "undecided"

(* Checking a circuit against itself settles every partition
   structurally; the stitched certificate still checks. *)
let test_self_check_trivial_partitions () =
  let g = Circuits.Adder.carry_lookahead 4 in
  let report = Parallel.check ~config:(config 2) g g in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "partition trivial" true (p.Parallel.status = Parallel.Trivial))
    report.Parallel.stats.Parallel.partitions;
  Alcotest.(check int) "no solving rounds" 0 report.Parallel.stats.Parallel.rounds;
  check_stitched "self" g g report

(* Duplicated outputs share one disagreement cone: solved once,
   reported as Shared. *)
let test_shared_partitions () =
  let dup g =
    Aig.add_output g (Aig.output g 0);
    g
  in
  let golden = dup (Circuits.Adder.ripple_carry 3) in
  let revised = dup (Circuits.Rewrite.double_negate (Circuits.Adder.ripple_carry 3)) in
  let report = Parallel.check ~config:(config 2) golden revised in
  let partitions = report.Parallel.stats.Parallel.partitions in
  let last = partitions.(Array.length partitions - 1) in
  Alcotest.(check bool) "duplicate output shares the first cone" true
    (last.Parallel.status = Parallel.Shared 0);
  Alcotest.(check int) "shared partition does no work" 0 last.Parallel.sat_calls;
  check_stitched "shared" golden revised report

(* The sequential engine plugged into the partitions is configurable;
   the monolithic engine must work too. *)
let test_monolithic_partitions () =
  let case = List.hd Circuits.Suite.small in
  let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
  let report = Parallel.check ~config:(config ~engine:Cec.Monolithic 2) golden revised in
  check_stitched "monolithic-partitions" golden revised report

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "determinism across domain counts" `Quick
          test_determinism_across_domains;
        Alcotest.test_case "budget escalation" `Quick test_budget_escalation;
        Alcotest.test_case "inequivalence localized" `Quick test_inequivalent_localization;
        Alcotest.test_case "self-check is trivial" `Quick test_self_check_trivial_partitions;
        Alcotest.test_case "shared partitions" `Quick test_shared_partitions;
        Alcotest.test_case "monolithic partition engine" `Quick test_monolithic_partitions;
        Alcotest.test_case "suite agreement with stitched certificates" `Slow
          test_suite_agreement;
      ] );
  ]
