module Lit = Aig.Lit
module Clause = Cnf.Clause
module Solver = Sat.Solver
module R = Proof.Resolution
module Veci = Support.Veci

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
      miter : Aig.t;
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

(* The three definitional clauses of every AND node [n]
   ([Cnf.Tseitin.clauses_of_and]) at [3n .. 3n+2], built once per
   engine so a query adds its cone's clauses without rebuilding them. *)
let tseitin_table g =
  let table = Array.make (3 * Aig.num_nodes g) Clause.empty in
  Aig.iter_ands g (fun n ->
      List.iteri (fun i c -> table.((3 * n) + i) <- c) (Cnf.Tseitin.clauses_of_and g n));
  table

let add_definitions solver table n =
  for i = 3 * n to (3 * n) + 2 do
    Solver.add_clause solver table.(i)
  done

(* --- mode 1: per-pair queries on one recycled solver, assumption-unit
       clauses, lifting, and explicit import into the global proof --- *)

(* A proved lemma as the per-pair engine keeps it.  [twin] is the slot
   of an equal CNF clause (a lemma can be one of its node's fanin
   clauses, or the output unit), or [-1]. *)
type lemma = {
  clause : Clause.t;
  root : R.id; (* its derivation in the global proof *)
  twin : int;
  leaf : R.node; (* its leaf in a query proof *)
}

(* Every query is asked of the same solver over the same proof store,
   both reset first; each leaf of that store records its origin, so an
   import maps it to its global node by array lookup:
   - [s >= 0]: slot [s] of [table]; its global leaf is registered at
     the first import that needs it, so the global node order is that
     of first use;
   - [-1 - r]: a lemma whose derivation is global node [r].
   A query holds one leaf per distinct clause.  A lemma equal to a
   fanin clause of its node is refuted by that clause alone, so its
   root is the clause's own global leaf; one equal to the output unit
   makes the final query satisfiable.  Either way the two origins of a
   shared leaf import alike. *)
type fresh_state = {
  leaf_ok : Clause.t -> bool; (* membership in the CNF the proof refutes *)
  table : Clause.t array;
      (* every CNF clause a query can add, by slot: the [tseitin_table],
         with the constant unit at slot 0 and a single-output graph's
         output unit at slot 1, which the constant node leaves free *)
  slot_leaf : R.node array; (* per slot: its leaf in a query proof *)
  output_slot : int; (* 1, or 0 when the output unit is the constant unit *)
  slot_global : R.id array; (* per slot: its global node, [-1] until needed *)
  slot_epoch : int array; (* per slot: the last query that added it *)
  slot_pid : R.id array; (* per slot: its leaf in that query *)
  stamp : int array; (* per node: the last query whose cone held it *)
  mutable epoch : int;
  cone : Veci.t; (* the current query's cone, ascending *)
  solver : Solver.t;
  qproof : R.t; (* [solver]'s proof store *)
  lift : Proof.Lift.scratch;
  origin : Veci.t; (* per [qproof] leaf: its origin *)
  global : R.t;
  registered : (Clause.t, unit) Hashtbl.t;
  mutable lemma_list : lemma list;
  lemmas_at : lemma list array; (* per node: the lemmas whose largest variable it is *)
  mutable sections : R.id list;
      (* last global proof node of each imported per-query refutation,
         newest first: section boundaries for hinted certificate
         emission ({!Proof.Binfmt.encode_hinted}) *)
}

let fresh_register o st stats clause root =
  if not (Hashtbl.mem st.registered clause) then begin
    Hashtbl.replace st.registered clause ();
    let m = Clause.max_var clause in
    let twin =
      Option.value ~default:(-1)
        (List.find_opt
           (fun i -> Clause.equal st.table.(i) clause)
           [ st.output_slot; 3 * m; (3 * m) + 1; (3 * m) + 2 ])
    in
    let l = { clause; root; twin; leaf = R.Leaf { clause; assumption = false } } in
    st.lemma_list <- l :: st.lemma_list;
    st.lemmas_at.(m) <- l :: st.lemmas_at.(m);
    stats.lemmas <- stats.lemmas + 1;
    Obs.Counter.incr o.o_lemmas
  end

(* Return the solver and the query proof to the state of a new solver
   over a new store with every graph node declared, and start the next
   query. *)
let begin_query g st =
  R.clear st.qproof;
  Veci.clear st.origin;
  Solver.reset st.solver;
  Solver.ensure_vars st.solver (Aig.num_nodes g);
  st.epoch <- st.epoch + 1

let add_leaf st c leaf origin =
  let pid = R.append_leaf_node st.qproof leaf in
  (* Chains appended in between (a clause false at level 0) need no
     origin. *)
  Veci.grow st.origin pid 0;
  Veci.push st.origin origin;
  Solver.add_derived_clause st.solver c pid;
  pid

(* A clause equal to one this query already holds is added again under
   that leaf. *)
let add_slot st i =
  if st.slot_epoch.(i) = st.epoch then
    Solver.add_derived_clause st.solver st.table.(i) st.slot_pid.(i)
  else begin
    st.slot_epoch.(i) <- st.epoch;
    st.slot_pid.(i) <- add_leaf st st.table.(i) st.slot_leaf.(i) i
  end

let add_lemma st l =
  if l.twin >= 0 && st.slot_epoch.(l.twin) = st.epoch then
    Solver.add_derived_clause st.solver l.clause st.slot_pid.(l.twin)
  else ignore (add_leaf st l.clause l.leaf (-1 - l.root))

let add_fanin_clauses st n =
  for i = 3 * n to (3 * n) + 2 do
    add_slot st i
  done

let global_of_origin st origin =
  if origin < 0 then -1 - origin
  else begin
    let id = st.slot_global.(origin) in
    if id >= 0 then id
    else begin
      let c = st.table.(origin) in
      assert (st.leaf_ok c);
      let id = R.add_leaf st.global c in
      st.slot_global.(origin) <- id;
      id
    end
  end

(* Import a lifted derivation from the query proof into the global
   proof: CNF clauses become global leaves, lemmas are replaced by
   their derivations. *)
let fresh_import st root =
  R.import st.global st.qproof ~root ~map_leaf:(fun id _ ->
      global_of_origin st (Veci.get st.origin id))

(* Whether every variable of [c] is the constant or in the cone. *)
let in_cone stamp epoch (c : Clause.t) =
  let c = (c :> int array) in
  let i = ref 0 in
  while
    !i < Array.length c
    &&
    let v = Lit.var c.(!i) in
    v = 0 || stamp.(v) = epoch
  do
    incr i
  done;
  !i = Array.length c

let rec add_lemmas_in_cone st = function
  | [] -> ()
  | l :: rest ->
    if in_cone st.stamp st.epoch l.clause then add_lemma st l;
    add_lemmas_in_cone st rest

(* One query over the candidates' cone.  Every graph node is declared
   as a solver variable and sits in the decision heap, but only the
   cone is walked and only its clauses are added, from the engine's
   clause table, in ascending node order.  A node's fanins precede it,
   so the cone is listed by one scan up to its largest query node. *)
let fresh_query g cfg st stats ~lits ~assumptions =
  stats.sat_calls <- stats.sat_calls + 1;
  begin_query g st;
  let epoch = st.epoch in
  let top = List.fold_left (fun top l -> if Lit.var l > top then Lit.var l else top) 0 lits in
  Aig.Cone.mark g ~marks:st.stamp ~mark:epoch lits;
  Veci.clear st.cone;
  for n = 1 to top do
    if st.stamp.(n) = epoch then Veci.push st.cone n
  done;
  add_slot st 0;
  for i = 0 to Veci.size st.cone - 1 do
    let n = Veci.get st.cone i in
    if Aig.is_and_node g n then add_fanin_clauses st n
  done;
  if cfg.lemma_reuse then
    for i = 0 to Veci.size st.cone - 1 do
      add_lemmas_in_cone st st.lemmas_at.(Veci.get st.cone i)
    done;
  List.iter
    (fun l -> Solver.add_clause ~assumption:true st.solver (Clause.singleton l))
    assumptions;
  let result =
    match Solver.solve ?max_conflicts:cfg.max_conflicts st.solver with
    | Solver.Sat model -> Countermodel (extract_inputs g model)
    | Solver.Unknown -> Budget
    | Solver.Unsat_assuming _ ->
      (* Assumptions are passed as clauses in this mode. *)
      assert false
    | Solver.Unsat root ->
      let lifted_root, lemma = Proof.Lift.refutation ~scratch:st.lift st.qproof ~root in
      let global_root = fresh_import st lifted_root in
      st.sections <- (R.size st.global - 1) :: st.sections;
      Refuted (global_root, lemma)
  in
  stats.conflicts <- stats.conflicts + Solver.num_conflicts st.solver;
  result

(* The final query: the whole miter CNF, in its own clause order, then
   every lemma. *)
let fresh_final g cfg st stats =
  stats.sat_calls <- stats.sat_calls + 1;
  begin_query g st;
  add_slot st 0;
  Aig.iter_ands g (fun n -> add_fanin_clauses st n);
  add_slot st st.output_slot;
  if cfg.lemma_reuse then List.iter (add_lemma st) st.lemma_list;
  let result =
    match Solver.solve ?max_conflicts:cfg.max_conflicts st.solver with
    | Solver.Sat model -> Disproved (extract_inputs g model)
    | Solver.Unknown | Solver.Unsat_assuming _ ->
      stats.unknowns <- stats.unknowns + 1;
      Unresolved
    | Solver.Unsat root ->
      let global_root = fresh_import st root in
      Proved
        {
          proof = st.global;
          root = global_root;
          miter = g;
          boundaries = Array.of_list (List.rev st.sections);
        }
  in
  stats.conflicts <- stats.conflicts + Solver.num_conflicts st.solver;
  result

let make_fresh_engine g cfg ~leaf_ok =
  let table = tseitin_table g in
  table.(0) <- Cnf.Tseitin.constant_unit;
  if Aig.num_outputs g = 1 then table.(1) <- Clause.singleton (Aig.output g 0);
  let qproof = R.create () in
  let st =
    {
      leaf_ok;
      table;
      slot_leaf = Array.map (fun clause -> R.Leaf { clause; assumption = false }) table;
      output_slot = (if Clause.equal table.(1) table.(0) then 0 else 1);
      slot_global = Array.make (Array.length table) (-1);
      slot_epoch = Array.make (Array.length table) 0;
      slot_pid = Array.make (Array.length table) 0;
      stamp = Array.make (Aig.num_nodes g) 0;
      epoch = 0;
      cone = Veci.create ();
      solver = Solver.create ~proof:qproof ();
      qproof;
      lift = Proof.Lift.scratch ();
      origin = Veci.create ();
      global = R.create ();
      registered = Hashtbl.create 256;
      lemma_list = [];
      lemmas_at = Array.make (Aig.num_nodes g) [];
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

let make_incremental_engine g cfg =
  let global = R.create () in
  let solver = Solver.create ~proof:global () in
  Solver.ensure_vars solver (Aig.num_nodes g);
  Solver.add_clause solver Cnf.Tseitin.constant_unit;
  let definitions = tseitin_table g in
  (* Nodes whose clauses are loaded, marked 1 for good: loaded nodes
     are closed under fanin, so a walk stops where the loaded part
     begins. *)
  let loaded = Array.make (Aig.num_nodes g) 0 in
  let stats = fresh_stats () in
  let o = obs_handles () in
  let prev_conflicts = ref 0 in
  let account () =
    stats.conflicts <- stats.conflicts + (Solver.num_conflicts solver - !prev_conflicts);
    prev_conflicts := Solver.num_conflicts solver
  in
  let add_cone lits =
    Array.iter
      (fun n -> if Aig.is_and_node g n then add_definitions solver definitions n)
      (Aig.Cone.unmarked g ~marks:loaded ~mark:1 lits)
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
          { proof = global; root; miter = g; boundaries = Array.of_list (List.rev !sections) }
    in
    account ();
    result
  in
  (engine, finalize)

(* --- entry points ------------------------------------------------- *)

let make_engine g cfg ~leaf_ok =
  let engine, finalize =
    match cfg.mode with
    | Incremental -> make_incremental_engine g cfg
    | Perpair -> make_fresh_engine g cfg ~leaf_ok
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
  let engine, finalize = make_engine g cfg ~leaf_ok:(Cnf.Tseitin.miter_mem g) in
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
    make_engine g cfg ~leaf_ok:(Cnf.Tseitin.graph_mem g)
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
