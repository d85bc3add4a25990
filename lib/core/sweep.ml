module Lit = Aig.Lit
module Clause = Cnf.Clause
module Formula = Cnf.Formula
module Solver = Sat.Solver
module R = Proof.Resolution

type mode =
  | Perpair
  | Incremental

let mode_to_string = function Perpair -> "perpair" | Incremental -> "incr"

type portfolio = Sat_only

type config = {
  words : int;
  seed : int;
  max_conflicts : int option;
  lemma_reuse : bool;
  mode : mode;
  portfolio : portfolio;
}

let default_config =
  {
    words = 8;
    seed = 1;
    max_conflicts = None;
    lemma_reuse = true;
    mode = Perpair;
    portfolio = Sat_only;
  }

type stats = {
  mutable sat_calls : int;
  mutable cex : int;
  mutable unknowns : int;
  mutable merges : int;
  mutable const_merges : int;
  mutable lemmas : int;
  mutable conflicts : int;
  mutable reused : int;
}

let fresh_stats () =
  {
    sat_calls = 0;
    cex = 0;
    unknowns = 0;
    merges = 0;
    const_merges = 0;
    lemmas = 0;
    conflicts = 0;
    reused = 0;
  }

(* Ambient-registry handles, resolved once per engine. *)
type obs_handles = {
  o_sat_calls : Obs.Counter.t;
  o_refuted : Obs.Counter.t;
  o_cex : Obs.Counter.t;
  o_budget : Obs.Counter.t;
  o_lemmas : Obs.Counter.t;
  o_merges : Obs.Counter.t;
  o_const_merges : Obs.Counter.t;
  o_sim_refinements : Obs.Counter.t;
  o_reuse : Obs.Counter.t;
}

let obs_handles () =
  let reg = Obs.ambient () in
  let c = Obs.Registry.counter reg in
  {
    o_sat_calls = c "sweep.sat_calls";
    o_refuted = c "sweep.sat_refuted";
    o_cex = c "sweep.sat_cex";
    o_budget = c "sweep.sat_budget";
    o_lemmas = c "sweep.lemmas";
    o_merges = c "sweep.merges";
    o_const_merges = c "sweep.const_merges";
    o_sim_refinements = c "sweep.sim_refinements";
    o_reuse = c "sweep.incremental_reuse";
  }

type outcome =
  | Proved of {
      proof : R.t;
      root : R.id;
      formula : Formula.t;
      boundaries : R.id array;
    }
  | Disproved of bool array
  | Unresolved

(* Result of one equivalence query. *)
type query_result =
  | Refuted of R.id * Clause.t (* derivation root (in the global proof) and lemma clause *)
  | Countermodel of bool array (* input assignment *)
  | Budget

(* The generic sweeping skeleton: an engine provides the SAT query; the
   skeleton walks nodes in topological order, settles each against its
   simulation-class leader, refines on counterexamples and records
   merges.  Lemma registration is engine-specific. *)
type engine = {
  g : Aig.t;
  cfg : config;
  stats : stats;
  obs : obs_handles;
  simc : Simclass.t;
  merged : (int * bool) option array;
  query : lits:Lit.t list -> assumptions:Lit.t list -> query_result;
  try_reuse : lits:Lit.t list -> assumptions:Lit.t list -> query_result option;
      (* settle a query from facts the engine already holds, without a
         SAT call; [None] means a real query is needed *)
  register_lemma : Clause.t -> R.id -> unit;
}

let extract_inputs g model =
  Array.init (Aig.num_inputs g) (fun i ->
      let v = Lit.var (Aig.input g i) in
      v < Array.length model && model.(v))

(* Prove node [n] equal to the constant given by [phase]: one
   refutation; its lemma [(~n)] or [(n)] subsumes both equivalence
   clauses. *)
let prove_constant e n phase =
  let ln = Lit.of_var n in
  let assumption = if phase then Lit.neg ln else ln in
  match e.query ~lits:[ ln ] ~assumptions:[ assumption ] with
  | Refuted (root, lemma) ->
    e.register_lemma lemma root;
    e.stats.const_merges <- e.stats.const_merges + 1;
    Obs.Counter.incr e.obs.o_const_merges;
    `Merged
  | Countermodel inputs ->
    e.stats.cex <- e.stats.cex + 1;
    Simclass.add_pattern e.simc inputs;
    `Cex
  | Budget ->
    e.stats.unknowns <- e.stats.unknowns + 1;
    `Gave_up

(* Prove node [n] equal to leader [r] up to [phase]: two refutations,
   one implication lemma each. *)
let prove_pair e n r phase =
  let ln = Lit.of_var n in
  let lr = Lit.apply_sign (Lit.of_var r) ~neg:phase in
  let lits = [ ln; Lit.of_var r ] in
  match e.query ~lits ~assumptions:[ ln; Lit.neg lr ] with
  | Countermodel inputs ->
    e.stats.cex <- e.stats.cex + 1;
    Simclass.add_pattern e.simc inputs;
    `Cex
  | Budget ->
    e.stats.unknowns <- e.stats.unknowns + 1;
    `Gave_up
  | Refuted (root_a, lemma_a) -> (
    match e.query ~lits ~assumptions:[ Lit.neg ln; lr ] with
    | Countermodel inputs ->
      e.stats.cex <- e.stats.cex + 1;
      Simclass.add_pattern e.simc inputs;
      `Cex
    | Budget ->
      e.stats.unknowns <- e.stats.unknowns + 1;
      `Gave_up
    | Refuted (root_b, lemma_b) ->
      e.register_lemma lemma_a root_a;
      e.register_lemma lemma_b root_b;
      e.stats.merges <- e.stats.merges + 1;
      Obs.Counter.incr e.obs.o_merges;
      `Merged)

(* Settle one AND node against its current class leader, retrying after
   counterexample refinements (each refinement strictly splits the
   class, so this terminates). *)
let rec settle e n =
  match Simclass.candidate e.simc n with
  | None -> ()
  | Some (r, phase) ->
    let verdict = if r = 0 then prove_constant e n phase else prove_pair e n r phase in
    (match verdict with
    | `Merged -> e.merged.(n) <- Some (r, phase)
    | `Gave_up -> ()
    | `Cex -> settle e n)

let sweep_all e = Aig.iter_ands e.g (fun n -> settle e n)

(* --- mode 1: a fresh solver per query, assumption-unit clauses,
       lifting, and explicit import into the global proof ------------ *)

type fresh_state = {
  miter_cnf : Formula.t;
  global : R.t;
  lemma_root : (Clause.t, R.id) Hashtbl.t;
  mutable lemma_list : Clause.t list;
  lemmas_by_max_var : (int, Clause.t list) Hashtbl.t;
  mutable sections : R.id list;
      (* last global proof node of each imported per-query refutation,
         newest first: section boundaries for hinted certificate
         emission ({!Proof.Binfmt.encode_hinted}) *)
}

let fresh_register o st stats clause root =
  if not (Hashtbl.mem st.lemma_root clause) then begin
    Hashtbl.replace st.lemma_root clause root;
    st.lemma_list <- clause :: st.lemma_list;
    let key = Clause.max_var clause in
    let existing = Option.value ~default:[] (Hashtbl.find_opt st.lemmas_by_max_var key) in
    Hashtbl.replace st.lemmas_by_max_var key (clause :: existing);
    stats.lemmas <- stats.lemmas + 1;
    Obs.Counter.incr o.o_lemmas
  end

(* Import a lifted derivation from a per-query proof into the global
   proof: miter clauses become (hash-consed) global leaves, previously
   proved lemmas are replaced by their derivations. *)
let fresh_import st qproof root =
  R.import st.global qproof ~root ~map_leaf:(fun _id c ->
      match Hashtbl.find_opt st.lemma_root c with
      | Some lemma_id -> lemma_id
      | None ->
        assert (Formula.mem st.miter_cnf c);
        R.add_leaf st.global c)

let fresh_query g cfg st stats ~lits ~assumptions =
  stats.sat_calls <- stats.sat_calls + 1;
  let qproof = R.create () in
  let solver = Solver.create ~proof:qproof () in
  let cone = Aig.Cone.tfi g lits in
  let in_cone = Array.make (Aig.num_nodes g) false in
  in_cone.(0) <- true;
  Array.iter (fun n -> in_cone.(n) <- true) cone;
  Solver.add_formula solver (Cnf.Tseitin.of_cone g lits);
  if cfg.lemma_reuse then
    Array.iter
      (fun n ->
        match Hashtbl.find_opt st.lemmas_by_max_var n with
        | None -> ()
        | Some lemmas ->
          List.iter
            (fun c ->
              if Clause.fold (fun acc l -> acc && in_cone.(Lit.var l)) true c then
                Solver.add_clause solver c)
            lemmas)
      cone;
  List.iter (fun l -> Solver.add_clause ~assumption:true solver (Clause.singleton l)) assumptions;
  let result =
    match Solver.solve ?max_conflicts:cfg.max_conflicts solver with
    | Solver.Sat model -> Countermodel (extract_inputs g model)
    | Solver.Unknown -> Budget
    | Solver.Unsat_assuming _ ->
      (* Assumptions are passed as clauses in this mode. *)
      assert false
    | Solver.Unsat root ->
      let lifted_root, lemma = Proof.Lift.refutation qproof ~root in
      let global_root = fresh_import st qproof lifted_root in
      st.sections <- (R.size st.global - 1) :: st.sections;
      Refuted (global_root, lemma)
  in
  stats.conflicts <- stats.conflicts + Solver.num_conflicts solver;
  result

let fresh_final g cfg st stats =
  stats.sat_calls <- stats.sat_calls + 1;
  let qproof = R.create () in
  let solver = Solver.create ~proof:qproof () in
  Solver.add_formula solver st.miter_cnf;
  if cfg.lemma_reuse then List.iter (Solver.add_clause solver) st.lemma_list;
  let result =
    match Solver.solve ?max_conflicts:cfg.max_conflicts solver with
    | Solver.Sat model -> Disproved (extract_inputs g model)
    | Solver.Unknown | Solver.Unsat_assuming _ ->
      stats.unknowns <- stats.unknowns + 1;
      Unresolved
    | Solver.Unsat root ->
      let global_root = fresh_import st qproof root in
      Proved
        {
          proof = st.global;
          root = global_root;
          formula = st.miter_cnf;
          boundaries = Array.of_list (List.rev st.sections);
        }
  in
  stats.conflicts <- stats.conflicts + Solver.num_conflicts solver;
  result

let make_fresh_engine g cfg ~formula =
  let st =
    {
      miter_cnf = formula;
      global = R.create ();
      lemma_root = Hashtbl.create 256;
      lemma_list = [];
      lemmas_by_max_var = Hashtbl.create 256;
      sections = [];
    }
  in
  let stats = fresh_stats () in
  let o = obs_handles () in
  let engine =
    {
      g;
      cfg;
      stats;
      obs = o;
      simc = Simclass.create g ~words:cfg.words ~seed:cfg.seed;
      merged = Array.make (Aig.num_nodes g) None;
      query = (fun ~lits ~assumptions -> fresh_query g cfg st stats ~lits ~assumptions);
      try_reuse = (fun ~lits:_ ~assumptions:_ -> None);
      register_lemma = (fun clause root -> fresh_register o st stats clause root);
    }
  in
  (engine, fun () -> fresh_final g cfg st stats)

(* --- mode 2: one incremental solver whose proof store IS the global
       proof; native assumptions; lemmas installed as derived clauses - *)

let make_incremental_engine g cfg ~formula =
  let global = R.create () in
  let solver = Solver.create ~proof:global () in
  Solver.ensure_vars solver (Aig.num_nodes g);
  Solver.add_clause solver Cnf.Tseitin.constant_unit;
  let added = Array.make (Aig.num_nodes g) false in
  let stats = fresh_stats () in
  let o = obs_handles () in
  let prev_conflicts = ref 0 in
  let account () =
    stats.conflicts <- stats.conflicts + (Solver.num_conflicts solver - !prev_conflicts);
    prev_conflicts := Solver.num_conflicts solver
  in
  let add_cone lits =
    Array.iter
      (fun n ->
        if not added.(n) then begin
          added.(n) <- true;
          List.iter (Solver.add_clause solver) (Cnf.Tseitin.clauses_of_and g n)
        end)
      (Aig.Cone.tfi_ands g lits)
  in
  let sections = ref [] in
  let query ~lits ~assumptions =
    stats.sat_calls <- stats.sat_calls + 1;
    add_cone lits;
    let result =
      match Solver.solve ?max_conflicts:cfg.max_conflicts ~assumptions solver with
      | Solver.Sat model -> Countermodel (extract_inputs g model)
      | Solver.Unknown -> Budget
      | Solver.Unsat_assuming { clause; pid } ->
        sections := (Solver.proof_size solver - 1) :: !sections;
        Refuted (pid, clause)
      | Solver.Unsat _ ->
        (* The definitional clauses alone are satisfiable, so a global
           refutation can only mean a programming error. *)
        assert false
    in
    account ();
    result
  in
  (* Facts fixed at the solver's root level — constant nodes discovered
     by earlier merges and their propagation closure — settle a query
     without searching: refuting assumption [a] only needs the unit
     [~a], and [Solver.derive_fixed] builds its derivation straight
     from the reason chain already on the trail.  This is knowledge the
     per-pair engine rediscovers from scratch on every query.  The cone
     is loaded and root propagation run first, so units implied by
     earlier lemmas through this query's own cone count too. *)
  let try_reuse ~lits ~assumptions =
    add_cone lits;
    Solver.propagate_root solver;
    match List.find_map (fun a -> Solver.derive_fixed solver (Lit.neg a)) assumptions with
    | Some (clause, pid) -> Some (Refuted (pid, clause))
    | None -> None
  in
  let register_lemma clause pid =
    (* The lemma becomes an ordinary solver clause backed by its
       derivation: later queries stitch through it for free. *)
    if cfg.lemma_reuse then Solver.add_derived_clause solver clause pid;
    stats.lemmas <- stats.lemmas + 1;
    Obs.Counter.incr o.o_lemmas
  in
  let engine =
    {
      g;
      cfg;
      stats;
      obs = o;
      simc = Simclass.create g ~words:cfg.words ~seed:cfg.seed;
      merged = Array.make (Aig.num_nodes g) None;
      query;
      try_reuse;
      register_lemma;
    }
  in
  let finalize () =
    stats.sat_calls <- stats.sat_calls + 1;
    add_cone [ Aig.output g 0 ];
    Solver.add_clause solver (Clause.singleton (Aig.output g 0));
    let result =
      match Solver.solve ?max_conflicts:cfg.max_conflicts solver with
      | Solver.Sat model -> Disproved (extract_inputs g model)
      | Solver.Unknown | Solver.Unsat_assuming _ ->
        stats.unknowns <- stats.unknowns + 1;
        Unresolved
      | Solver.Unsat root ->
        Proved
          { proof = global; root; formula; boundaries = Array.of_list (List.rev !sections) }
    in
    account ();
    result
  in
  (engine, finalize)

(* --- entry points ------------------------------------------------- *)

let make_engine g cfg ~formula =
  let engine, finalize =
    match cfg.mode with
    | Incremental -> make_incremental_engine g cfg ~formula
    | Perpair -> make_fresh_engine g cfg ~formula
  in
  (* Wrap the engine-specific callbacks so every mode records the same
     observability counters at the same points.  A query settled from
     already-held facts counts only as a reuse, never as a SAT call. *)
  let o = engine.obs in
  let query ~lits ~assumptions =
    match engine.try_reuse ~lits ~assumptions with
    | Some r ->
      engine.stats.reused <- engine.stats.reused + 1;
      Obs.Counter.incr o.o_reuse;
      r
    | None ->
      Obs.Counter.incr o.o_sat_calls;
      let r = engine.query ~lits ~assumptions in
      (match r with
      | Refuted _ -> Obs.Counter.incr o.o_refuted
      | Countermodel _ ->
        Obs.Counter.incr o.o_cex;
        (* Every sweeping countermodel becomes a refinement pattern. *)
        Obs.Counter.incr o.o_sim_refinements
      | Budget -> Obs.Counter.incr o.o_budget);
      r
  in
  let finalize () =
    Obs.Counter.incr o.o_sat_calls;
    let outcome = finalize () in
    (match outcome with
    | Proved _ -> Obs.Counter.incr o.o_refuted
    | Disproved _ -> Obs.Counter.incr o.o_cex
    | Unresolved -> Obs.Counter.incr o.o_budget);
    outcome
  in
  ({ engine with query }, finalize)

let run g cfg =
  if Aig.num_outputs g <> 1 then invalid_arg "Sweep.run: expected a single-output miter";
  let engine, finalize = make_engine g cfg ~formula:(Cnf.Tseitin.miter_formula g) in
  sweep_all engine;
  (finalize (), engine.stats)

(* Functional reduction (fraiging): sweep an arbitrary graph and
   rebuild it with every proved-equivalent node replaced by its class
   representative.  Every replacement is SAT-proved against the
   graph's own Tseitin CNF, so the result computes the same functions. *)
let fraig g cfg =
  let engine, _finalize =
    (* fraig makes no final call and works on arbitrary graphs: the
       leaf universe is the graph's own Tseitin CNF. *)
    make_engine g cfg ~formula:(Cnf.Tseitin.of_graph g)
  in
  sweep_all engine;
  let fresh = Aig.create ~num_inputs:(Aig.num_inputs g) in
  let map = Array.make (Aig.num_nodes g) Lit.false_ in
  for i = 0 to Aig.num_inputs g - 1 do
    map.(1 + i) <- Aig.input fresh i
  done;
  let map_lit l = Lit.apply_sign map.(Lit.var l) ~neg:(Lit.is_neg l) in
  Aig.iter_ands g (fun n ->
      map.(n) <-
        (match engine.merged.(n) with
        | Some (r, phase) -> Lit.apply_sign map.(r) ~neg:phase
        | None -> Aig.and_ fresh (map_lit (Aig.fanin0 g n)) (map_lit (Aig.fanin1 g n))));
  Array.iter (fun l -> Aig.add_output fresh (map_lit l)) (Aig.outputs g);
  (fresh, engine.stats)
