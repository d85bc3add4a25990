module Solver = Sat.Solver
module R = Proof.Resolution

type certificate = {
  proof : R.t;
  root : R.id;
  miter : Aig.t;
  boundaries : R.id array;
}

type engine =
  | Monolithic
  | Sweeping of Sweep.config

let engine_of_string ?(base = Sweep.default_config) name =
  match name with
  | "mono" | "monolithic" -> Some Monolithic
  | "sweep" | "sweeping" -> Some (Sweeping base)
  | _ -> None

type verdict =
  | Equivalent of certificate
  | Inequivalent of bool array
  | Undecided

type report = {
  verdict : verdict;
  sweep_stats : Sweep.stats option;
  solver_conflicts : int;
  sat_calls : int;
}

let extract_inputs g model =
  Array.init (Aig.num_inputs g) (fun i ->
      let v = Aig.Lit.var (Aig.input g i) in
      v < Array.length model && model.(v))

let check_monolithic ?max_conflicts miter =
  let formula = Cnf.Tseitin.miter_formula miter in
  let solver = Solver.create () in
  Solver.add_formula solver formula;
  let verdict =
    match Solver.solve ?max_conflicts solver with
    | Solver.Sat model -> Inequivalent (extract_inputs miter model)
    | Solver.Unknown | Solver.Unsat_assuming _ -> Undecided
    | Solver.Unsat root ->
      Equivalent { proof = Solver.proof solver; root; miter; boundaries = [||] }
  in
  {
    verdict;
    sweep_stats = None;
    solver_conflicts = Solver.num_conflicts solver;
    sat_calls = 1;
  }

let check_sweeping ?max_conflicts cfg miter =
  let cfg =
    match max_conflicts with
    | None -> cfg
    | Some budget -> { cfg with Sweep.max_conflicts = Some budget }
  in
  let outcome, stats = Sweep.run miter cfg in
  let verdict =
    match outcome with
    | Sweep.Proved { proof; root; miter; boundaries } ->
      Equivalent { proof; root; miter; boundaries }
    | Sweep.Disproved inputs -> Inequivalent inputs
    | Sweep.Unresolved -> Undecided
  in
  {
    verdict;
    sweep_stats = Some stats;
    solver_conflicts = stats.Sweep.conflicts;
    sat_calls = stats.Sweep.sat_calls;
  }

let check_miter ?max_conflicts engine miter =
  if Aig.num_outputs miter <> 1 then invalid_arg "Cec.check_miter: expected one output";
  match engine with
  | Monolithic -> check_monolithic ?max_conflicts miter
  | Sweeping cfg -> check_sweeping ?max_conflicts cfg miter

let check_supervised ?max_conflicts engine miter =
  let attempt () =
    Fault.inject "worker.crash";
    if Fault.fire "engine.budget" then
      (* Simulated budget blowout: the attempt burns its whole budget
         without deciding, forcing the escalation/give-up machinery. *)
      {
        verdict = Undecided;
        sweep_stats = None;
        solver_conflicts = Option.value max_conflicts ~default:0;
        sat_calls = 1;
      }
    else check_miter ?max_conflicts engine miter
  in
  match attempt () with
  | report -> Ok report
  | exception _ -> (
    match attempt () with
    | report -> Ok report
    | exception e -> Error (Printexc.to_string e))

let check engine a b = check_miter engine (Aig.Miter.build a b)

(* Bounded sequential equivalence: unroll both transition structures
   from reset and check the combinational expansions. *)
let check_bounded ~frames engine a b =
  if Aig.Seq.num_pis a <> Aig.Seq.num_pis b then
    invalid_arg "Cec.check_bounded: primary input counts differ";
  if Aig.Seq.num_pos a <> Aig.Seq.num_pos b then
    invalid_arg "Cec.check_bounded: primary output counts differ";
  check engine (Aig.Seq.unroll a ~frames) (Aig.Seq.unroll b ~frames)

(* Bounded model checking: is any output (read: bad-state flag) of the
   unrolled circuit reachable within [frames] steps from reset? *)
let check_bounded_safety ~frames engine seq =
  let unrolled = Aig.Seq.unroll seq ~frames in
  (* Fold every frame's bad-state flags into one output and reuse the
     single-output miter machinery: safe iff that output is constant
     false. *)
  let g = Aig.create ~num_inputs:(Aig.num_inputs unrolled) in
  let inputs = Array.init (Aig.num_inputs unrolled) (Aig.input g) in
  let outs = Aig.append g unrolled ~inputs in
  Aig.add_output g (Aig.or_list g (Array.to_list outs));
  check_miter engine g

type output_report = {
  output : int;
  output_verdict : verdict;
}

let check_outputs engine a b =
  if Aig.num_inputs a <> Aig.num_inputs b then invalid_arg "Cec.check_outputs: input counts differ";
  if Aig.num_outputs a <> Aig.num_outputs b then
    invalid_arg "Cec.check_outputs: output counts differ";
  Array.init (Aig.num_outputs a) (fun o ->
      let cone_a = Aig.extract_cone a [ Aig.output a o ] in
      let cone_b = Aig.extract_cone b [ Aig.output b o ] in
      { output = o; output_verdict = (check engine cone_a cone_b).verdict })

let equivalent a b =
  match (check (Sweeping Sweep.default_config) a b).verdict with
  | Equivalent _ -> true
  | Inequivalent _ -> false
  | Undecided -> failwith "Cec.equivalent: undecided"
