module Lit = Aig.Lit
module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Solver = Sat.Solver
module R = Proof.Resolution

type config = {
  num_domains : int;
  engine : Cec.engine;
  budget : int option;
  escalation : int;
  max_rounds : int;
}

let default_config =
  {
    num_domains = Domain.recommended_domain_count ();
    engine = Cec.Sweeping Sweep.default_config;
    budget = None;
    escalation = 4;
    max_rounds = 3;
  }

type status =
  | Proved
  | Refuted
  | Gave_up
  | Trivial
  | Shared of int
  | Crashed

type partition = {
  output : int;
  cone_ands : int;
  attempts : int;
  conflicts : int;
  sat_calls : int;
  status : status;
}

type stats = {
  partitions : partition array;
  domains : int;
  rounds : int;
  conflicts : int;
  sat_calls : int;
}

type report = {
  verdict : Cec.verdict;
  stats : stats;
  degraded : string option;
}

(* One solving job: a distinct disagreement literal and its fanin cone,
   extracted with the node correspondence needed to re-base the cone's
   refutation onto the miter's numbering.  Worker domains mutate only
   their own job; the main domain reads after joining them. *)
type job = {
  diff : Lit.t;
  cone : Aig.t;
  node_map : int array;
  covers : int; (* first output index settled by this job *)
  mutable result : Cec.report option;
  mutable attempts : int;
  mutable conflicts : int;
  mutable sat_calls : int;
  mutable crashed : string option;
      (* Some reason: an attempt and its retry both raised; terminal *)
}

(* How each output pair is settled. *)
type slot =
  | Slot_trivial (* disagreement literal constant false *)
  | Slot_static_neq (* disagreement literal constant true *)
  | Slot_job of job

(* One supervised attempt on every job, pulling indices from a shared
   counter (a queue without stealing: jobs are independent, so arrival
   order cannot influence any result).  Returns the worker count used.

   Supervision is {!Cec.check_supervised}: a job whose attempt raises
   (a worker "crash" — real bug or injected [worker.crash]) is retried
   once, immediately, on the same worker; a second crash marks the job
   permanently crashed (surfaced as status [Crashed] and a degraded
   report) instead of tearing down the whole round.  Each worker
   mutates only the job it popped, so the bookkeeping needs no
   synchronization.

   Each worker records observability into its own local registry —
   plain mutation, no synchronization — and the registries are merged
   into the caller's ambient registry after the joins.  Counter and
   histogram merging is commutative, so the aggregate is identical for
   every worker count. *)
let run_round ~num_domains engine budget jobs =
  let n = Array.length jobs in
  if n = 0 then 0
  else begin
    let workers = max 1 (min num_domains n) in
    let next = Atomic.make 0 in
    let round_start = Obs.Clock.now () in
    let work reg () =
      Obs.with_ambient reg (fun () ->
          let o_attempts = Obs.Registry.counter reg "parallel.attempts" in
          let o_job_ms = Obs.Registry.histogram reg "parallel.job_ms" in
          let o_queue_wait_ms = Obs.Registry.histogram reg "parallel.queue_wait_ms" in
          let o_crashes = Obs.Registry.counter reg "parallel.job_crashes" in
          let o_retries = Obs.Registry.counter reg "parallel.job_retries" in
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              let job = jobs.(i) in
              let t0 = Obs.Clock.now () in
              Obs.Histogram.observe o_queue_wait_ms (1000.0 *. (t0 -. round_start));
              let s = Cec.check_supervised ?max_conflicts:budget engine job.cone in
              Obs.Counter.add o_crashes s.Cec.crashes;
              if s.Cec.crashes > 0 then Obs.Counter.incr o_retries;
              (match s.Cec.result with
              | Ok report ->
                job.attempts <- job.attempts + 1;
                job.conflicts <- job.conflicts + report.Cec.solver_conflicts;
                job.sat_calls <- job.sat_calls + report.Cec.sat_calls;
                job.result <- Some report
              | Error reason -> job.crashed <- Some reason);
              Obs.Counter.incr o_attempts;
              Obs.Histogram.observe o_job_ms (1000.0 *. (Obs.Clock.now () -. t0));
              loop ()
            end
          in
          loop ())
    in
    let parent = Obs.ambient () in
    let regs = Array.init workers (fun _ -> Obs.Registry.create ()) in
    let spawned = Array.init (workers - 1) (fun k -> Domain.spawn (work regs.(k + 1))) in
    work regs.(0) ();
    Array.iter Domain.join spawned;
    Array.iter (fun r -> Obs.Registry.merge_into ~into:parent r) regs;
    workers
  end

let job_undecided job =
  match job.result with
  | Some { Cec.verdict = Cec.Undecided; _ } -> true
  | Some _ -> false
  | None -> true

(* Crashed on both an attempt and its retry: terminal, never
   rescheduled, reported as [Crashed]. *)
let job_crashed job = job.crashed <> None

let job_refuted job =
  match job.result with
  | Some { Cec.verdict = Cec.Inequivalent _; _ } -> true
  | _ -> false

(* Merge the per-partition refutations into one refutation of the
   combined miter CNF (see the .mli for the construction). *)
let stitch miter diffs formula jobs =
  Fault.inject "proof.lift";
  let s = R.create () in
  let lemma_root : (Clause.t, R.id) Hashtbl.t = Hashtbl.create 16 in
  let lemma_order = ref [] in
  let sections = ref [] in
  let direct = ref None in
  List.iter
    (fun job ->
      match job.result with
      | Some { Cec.verdict = Cec.Equivalent cert; _ } when !direct = None ->
        let map_lit l = Lit.apply_sign (Lit.of_var job.node_map.(Lit.var l)) ~neg:(Lit.is_neg l) in
        let assumption = Clause.singleton job.diff in
        let root =
          R.import_mapped s cert.Cec.proof ~root:cert.Cec.root ~map_lit
            ~map_leaf:(fun _ c ->
              if Clause.equal c assumption then R.add_leaf ~assumption:true s c
              else R.add_leaf s c)
        in
        let lifted, lemma = Proof.Lift.refutation s ~root in
        (* One section per stitched partition: hinted-certificate
           shards check these spans in parallel. *)
        sections := (R.size s - 1) :: !sections;
        if Clause.is_empty lemma then
          (* The partition refuted the definitional clauses alone —
             impossible for consistent Tseitin cones, but if it ever
             happens the derivation already refutes the miter CNF. *)
          direct := Some lifted
        else if (not (Formula.mem formula lemma)) && not (Hashtbl.mem lemma_root lemma) then begin
          Hashtbl.replace lemma_root lemma lifted;
          lemma_order := lemma :: !lemma_order
        end
      | _ -> ())
    jobs;
  let boundaries () = Array.of_list (List.rev !sections) in
  match !direct with
  | Some root -> ({ Cec.proof = s; root; formula; boundaries = boundaries () }, 0)
  | None ->
    (* Final stitch: the asserted output, the output-combining OR
       layer above the disagreement nodes, and the per-partition unit
       lemmas conflict by unit propagation alone.  Importing the tiny
       refutation with lemma leaves replaced by their derivations
       yields a proof whose leaves are all original miter clauses. *)
    let qproof = R.create () in
    let solver = Solver.create ~proof:qproof () in
    Solver.ensure_vars solver (Aig.num_nodes miter);
    Solver.add_clause solver Cnf.Tseitin.constant_unit;
    (* Pre-marked disagreement nodes stop the walk, so only the
       output-combining layer above them is loaded. *)
    let marks = Array.make (Aig.num_nodes miter) 0 in
    Array.iter (fun d -> if not (Lit.is_const d) then marks.(Lit.var d) <- 1) diffs;
    let out = Aig.output miter 0 in
    Array.iter
      (fun n ->
        if Aig.is_and_node miter n then
          List.iter (Solver.add_clause solver) (Cnf.Tseitin.clauses_of_and miter n))
      (Aig.Cone.unmarked miter ~marks ~mark:1 [ out ]);
    Solver.add_clause solver (Clause.singleton out);
    List.iter (Solver.add_clause solver) (List.rev !lemma_order);
    (match Solver.solve solver with
    | Solver.Unsat root ->
      let final =
        R.import s qproof ~root ~map_leaf:(fun _ c ->
            match Hashtbl.find_opt lemma_root c with
            | Some id -> id
            | None -> R.add_leaf s c)
      in
      ( { Cec.proof = s; root = final; formula; boundaries = boundaries () },
        Solver.num_conflicts solver )
    | Solver.Sat _ | Solver.Unknown | Solver.Unsat_assuming _ ->
      failwith "Parallel.check: final stitch call did not refute (internal error)")

let check ?(config = default_config) a b =
  let miter, diffs = Aig.Miter.build_detailed a b in
  let formula = Cnf.Tseitin.miter_formula miter in
  (* Partition: one slot per output pair, one job per distinct
     non-constant disagreement literal. *)
  let job_of_diff : (Lit.t, job) Hashtbl.t = Hashtbl.create 16 in
  let slots =
    Array.mapi
      (fun o diff ->
        if diff = Lit.false_ then Slot_trivial
        else if diff = Lit.true_ then Slot_static_neq
        else
          match Hashtbl.find_opt job_of_diff diff with
          | Some job -> Slot_job job
          | None ->
            let cone, node_map = Aig.extract_cone_map miter [ diff ] in
            let job =
              {
                diff;
                cone;
                node_map;
                covers = o;
                result = None;
                attempts = 0;
                conflicts = 0;
                sat_calls = 0;
                crashed = None;
              }
            in
            Hashtbl.add job_of_diff diff job;
            Slot_job job)
      diffs
  in
  let jobs =
    Array.of_list
      (List.filteri
         (fun o slot -> match slot with Slot_job j -> j.covers = o | _ -> false)
         (Array.to_list slots)
      |> List.map (function Slot_job j -> j | _ -> assert false))
  in
  (* Largest cones first: pure scheduling, invisible in the results. *)
  let schedule = Array.copy jobs in
  Array.sort
    (fun x y ->
      match compare (Aig.num_ands y.cone) (Aig.num_ands x.cone) with
      | 0 -> compare x.covers y.covers
      | c -> c)
    schedule;
  let num_domains = max 1 config.num_domains in
  let escalation = max 2 config.escalation in
  let reg = Obs.ambient () in
  let o_rounds = Obs.Registry.counter reg "parallel.rounds" in
  let o_escalations = Obs.Registry.counter reg "parallel.budget_escalations" in
  Obs.Counter.add (Obs.Registry.counter reg "parallel.partitions") (Array.length slots);
  Obs.Counter.add (Obs.Registry.counter reg "parallel.jobs") (Array.length jobs);
  let rounds = ref 0 in
  let domains_used = ref (if Array.length schedule = 0 then 1 else 0) in
  let budget_for round =
    Option.map (fun b -> b * int_of_float (float_of_int escalation ** float_of_int round)) config.budget
  in
  let pending = ref schedule in
  let continue = ref (Array.length schedule > 0) in
  while !continue do
    let budget = budget_for !rounds in
    Obs.Counter.incr o_rounds;
    if !rounds > 0 then Obs.Counter.incr o_escalations;
    let used =
      Obs.Span.with_ reg "parallel.round" (fun () ->
          run_round ~num_domains config.engine budget !pending)
    in
    domains_used := max !domains_used used;
    incr rounds;
    let undecided =
      Array.of_list
        (List.filter (fun j -> job_undecided j && not (job_crashed j)) (Array.to_list !pending))
    in
    pending := undecided;
    continue :=
      Array.length undecided > 0
      && budget <> None
      && !rounds < max 1 config.max_rounds
      && not (Array.exists job_refuted jobs)
  done;
  (* Aggregate in output order — completion order is irrelevant. *)
  let partitions =
    Array.mapi
      (fun o slot ->
        match slot with
        | Slot_trivial ->
          { output = o; cone_ands = 0; attempts = 0; conflicts = 0; sat_calls = 0; status = Trivial }
        | Slot_static_neq ->
          { output = o; cone_ands = 0; attempts = 0; conflicts = 0; sat_calls = 0; status = Refuted }
        | Slot_job job ->
          let status =
            match job.result with
            | Some { Cec.verdict = Cec.Equivalent _; _ } -> Proved
            | Some { Cec.verdict = Cec.Inequivalent _; _ } -> Refuted
            | Some { Cec.verdict = Cec.Undecided; _ } | None ->
              if job_crashed job then Crashed else Gave_up
          in
          if job.covers = o then
            {
              output = o;
              cone_ands = Aig.num_ands job.cone;
              attempts = job.attempts;
              conflicts = job.conflicts;
              sat_calls = job.sat_calls;
              status;
            }
          else
            {
              output = o;
              cone_ands = Aig.num_ands job.cone;
              attempts = 0;
              conflicts = 0;
              sat_calls = 0;
              status =
                (match status with
                | Refuted -> Refuted
                | Gave_up -> Gave_up
                | Crashed -> Crashed
                | _ -> Shared job.covers);
            })
      slots
  in
  let witness = function
    | Slot_static_neq -> Some (Array.make (Aig.num_inputs miter) false)
    | Slot_job { result = Some { Cec.verdict = Cec.Inequivalent cex; _ }; _ } -> Some cex
    | _ -> None
  in
  let first_cex = Array.to_list slots |> List.find_map witness in
  let gave_up =
    Array.exists (fun p -> match p.status with Gave_up -> true | _ -> false) partitions
  in
  let crashed = Array.to_list jobs |> List.filter job_crashed in
  let crash_reason () =
    let detail =
      match List.find_map (fun j -> j.crashed) crashed with
      | Some msg -> ": " ^ msg
      | None -> ""
    in
    Printf.sprintf "%d partition job(s) crashed twice%s" (List.length crashed) detail
  in
  let base_conflicts = Array.fold_left (fun acc j -> acc + j.conflicts) 0 jobs in
  let base_calls = Array.fold_left (fun acc j -> acc + j.sat_calls) 0 jobs in
  let verdict, degraded, extra_conflicts, extra_calls =
    match first_cex with
    | Some cex -> (Cec.Inequivalent cex, None, 0, 0)
    | None ->
      if crashed <> [] then (Cec.Undecided, Some (crash_reason ()), 0, 0)
      else if gave_up then (Cec.Undecided, None, 0, 0)
      else begin
        (* Proof stitching is post-verdict work: every partition is
           already proved.  If it still fails (a lifting bug, or the
           injected [proof.lift] fault) the honest answer is an
           uncertified [Undecided], never an [Equivalent] without a
           checkable certificate. *)
        match
          Obs.Span.with_ reg "parallel.stitch" (fun () ->
              stitch miter diffs formula (Array.to_list jobs))
        with
        | cert, stitch_conflicts -> (Cec.Equivalent cert, None, stitch_conflicts, 1)
        | exception e ->
          Obs.Counter.incr (Obs.Registry.counter reg "parallel.stitch_failures");
          ( Cec.Undecided,
            Some (Printf.sprintf "certificate stitching failed: %s" (Printexc.to_string e)),
            0,
            0 )
      end
  in
  {
    verdict;
    degraded;
    stats =
      {
        partitions;
        domains = !domains_used;
        rounds = !rounds;
        conflicts = base_conflicts + extra_conflicts;
        sat_calls = base_calls + extra_calls;
      };
  }
