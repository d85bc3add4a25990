module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep

type config = {
  jobs : int;
  engine : Cec.engine;
  budget : int option;
  escalation : int;
  max_rounds : int;
}

let default_config =
  {
    jobs = 1;
    engine = Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental };
    budget = Some 50_000;
    escalation = 4;
    max_rounds = 4;
  }

type result = {
  verdict : Cec.verdict;
  conflicts : int;
  sat_calls : int;
  rounds : int;
  timed_out : bool;
  degraded : string option;
}

let solve ?(clock = Unix.gettimeofday) ?deadline config golden revised =
  let expired () =
    match deadline with Some d -> clock () >= d | None -> false
  in
  let escalation = max 2 config.escalation in
  let max_rounds = max 1 config.max_rounds in
  (* Built on the first round, so an expired request does no work. *)
  let miter = lazy (Aig.Miter.build golden revised) in
  let o_rounds = Obs.Registry.counter (Obs.ambient ()) "engine.rounds" in
  let conflicts = ref 0 and sat_calls = ref 0 and rounds = ref 0 in
  let finish ?degraded verdict timed_out =
    {
      verdict;
      conflicts = !conflicts;
      sat_calls = !sat_calls;
      rounds = !rounds;
      timed_out;
      degraded;
    }
  in
  let rec round n budget =
    if expired () then finish Cec.Undecided true
    else begin
      let miter = Lazy.force miter in
      let result = Cec.check_supervised ?max_conflicts:budget config.engine miter in
      incr rounds;
      Obs.Counter.incr o_rounds;
      match result with
      | Error reason ->
        (* The round crashed on its attempt and its retry: an explicit
           uncertified answer instead of a silent give-up. *)
        finish ~degraded:(Printf.sprintf "solve crashed twice: %s" reason) Cec.Undecided false
      | Ok report -> (
        conflicts := !conflicts + report.Cec.solver_conflicts;
        sat_calls := !sat_calls + report.Cec.sat_calls;
        match (report.Cec.verdict, budget) with
        | (Cec.Equivalent _ | Cec.Inequivalent _), _ | Cec.Undecided, None ->
          finish report.Cec.verdict false
        | Cec.Undecided, Some b ->
          if n + 1 >= max_rounds then finish Cec.Undecided false
          else round (n + 1) (Some (b * escalation)))
    end
  in
  round 0 config.budget
