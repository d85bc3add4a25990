(* Quickstart: prove two structurally different adders equivalent and
   independently validate the resolution-proof certificate.

   Run with: dune exec examples/quickstart.exe *)

module Cec = Cec_core.Cec
module Certify = Cec_core.Certify

let () =
  let width = 16 in
  let golden = Circuits.Adder.ripple_carry width in
  let revised = Circuits.Adder.carry_lookahead width in
  Format.printf "golden : %a@." Aig.pp_stats golden;
  Format.printf "revised: %a@." Aig.pp_stats revised;

  let engine = Cec.Sweeping Cec_core.Sweep.default_config in
  let report = Cec.check engine golden revised in
  (match report.Cec.verdict with
  | Cec.Equivalent cert ->
    Format.printf "verdict: EQUIVALENT@.";
    let stats = Proof.Pstats.of_root cert.Cec.proof ~root:cert.Cec.root in
    Format.printf "stitched proof: %a@." Proof.Pstats.pp stats;
    (* Re-check the certificate against a miter rebuilt from the
       circuits: nothing is trusted from the solver run. *)
    (match Certify.validate_against cert golden revised with
    | Ok chains -> Format.printf "certificate validated: %d chains re-derived@." chains
    | Error e -> Format.printf "certificate REJECTED: %a@." Certify.pp_error e)
  | Cec.Inequivalent cex ->
    Format.printf "verdict: INEQUIVALENT, cex:";
    Array.iter (fun b -> print_char (if b then '1' else '0')) cex;
    Format.printf "@."
  | Cec.Undecided -> Format.printf "verdict: UNDECIDED@.");
  (match report.Cec.sweep_stats with
  | Some s ->
    Format.printf "sweeping: %d SAT calls, %d merges, %d constant nodes, %d lemmas, %d cex@."
      s.Cec_core.Sweep.sat_calls s.Cec_core.Sweep.merges s.Cec_core.Sweep.const_merges
      s.Cec_core.Sweep.lemmas s.Cec_core.Sweep.cex
  | None -> ());
  Format.printf "total solver conflicts: %d@." report.Cec.solver_conflicts
