module Veci = Support.Veci
module Clause = Cnf.Clause
module Lit = Aig.Lit
module R = Proof.Resolution

type result =
  | Sat of bool array
  | Unsat of R.id
  | Unsat_assuming of { clause : Clause.t; pid : R.id }
  | Unknown

type t = {
  proof : R.t;
  (* The clause arena, MiniSat 2.2's layout with one column per clause
     field: clause [ci]'s literals are [lits.(c_start.(ci))] onwards,
     [c_size.(ci)] of them, its two watched literals first.  [reset]
     truncates it; clauses are never freed before. *)
  mutable lits : int array;
  mutable lits_used : int;
  mutable c_start : int array;
  mutable c_size : int array;
  mutable c_pid : int array; (* proof node *)
  mutable c_learned : bool array;
  mutable c_deleted : bool array;
  mutable c_act : float array;
  mutable num_clauses : int;
  mutable nvars : int;
  (* Per-variable state, sized by [grow_arrays]. *)
  mutable assign : int array; (* -1 unassigned, else 0/1 *)
  mutable level : int array;
  mutable reason : int array; (* arena index or -1 *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
      (* conflict-analysis scratch, shared by [analyze], [analyze_final]
         and [derive_empty_at_level0]; all false between their calls *)
  mutable unit_pids : int array;
      (* derivation of the variable's root-level unit, or -1; see [unit_pid] *)
  mutable watches : Veci.t array; (* per literal; [no_watches] until first watched *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  order : Heap.t; (* over [activity] *)
  mutable order_built : bool; (* filled lazily, as [order] says *)
  mutable var_inc : float;
  mutable unsat_root : R.id option;
  learned_indices : Veci.t;
  retired : Veci.t; (* pids of learned clauses dropped by reduce_db *)
  mutable live_learned : int;
  mutable reduce_base : int;
  mutable cla_inc : float;
  mutable reductions : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learned : int;
  mutable restarts : int;
  (* Conflict-analysis scratch vectors, empty or stale between calls:
     [learnt] collects the learned clause (asserting literal first once
     [analyze] returns), [chain_ants]/[chain_pivots] the chain that
     [analyze], [analyze_final] and [derive_empty_at_level0] log. *)
  learnt : Veci.t;
  to_clear : Veci.t;
  kept : Veci.t;
  removed : Veci.t;
  chain_ants : Veci.t;
  chain_pivots : Veci.t;
  (* Ambient-registry handles, resolved once at [create] so the hot
     loops pay a single field increment. *)
  o_conflicts : Obs.Counter.t;
  o_decisions : Obs.Counter.t;
  o_propagations : Obs.Counter.t;
  o_restarts : Obs.Counter.t;
  o_learned_size : Obs.Histogram.t;
  o_retired : Obs.Counter.t;
  o_carried : Obs.Counter.t;
}

(* The watch list of every literal nothing watches yet, shared by all
   solvers: a literal gets its own list at its first [watch], so
   declaring a variable costs no allocation beyond its array slots.
   Nothing ever writes to it ([watch] replaces it first and [propagate]
   leaves empty lists alone), so it stays empty. *)
let no_watches = Veci.create ~capacity:0 ()

let create ?proof ?(reduce_base = 4000) () =
  let proof = match proof with Some p -> p | None -> R.create () in
  let reg = Obs.ambient () in
  {
    proof;
    lits = Array.make 256 0;
    lits_used = 0;
    c_start = Array.make 64 0;
    c_size = Array.make 64 0;
    c_pid = Array.make 64 0;
    c_learned = Array.make 64 false;
    c_deleted = Array.make 64 false;
    c_act = Array.make 64 0.0;
    num_clauses = 0;
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    unit_pids = Array.make 16 (-1);
    watches = Array.make 32 no_watches;
    trail = Veci.create ();
    trail_lim = Veci.create ();
    qhead = 0;
    order = Heap.create ();
    order_built = false;
    var_inc = 1.0;
    unsat_root = None;
    learned_indices = Veci.create ();
    retired = Veci.create ();
    live_learned = 0;
    reduce_base;
    cla_inc = 1.0;
    reductions = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learned = 0;
    restarts = 0;
    learnt = Veci.create ();
    to_clear = Veci.create ();
    kept = Veci.create ();
    removed = Veci.create ();
    chain_ants = Veci.create ();
    chain_pivots = Veci.create ();
    o_conflicts = Obs.Registry.counter reg "sat.conflicts";
    o_decisions = Obs.Registry.counter reg "sat.decisions";
    o_propagations = Obs.Registry.counter reg "sat.propagations";
    o_restarts = Obs.Registry.counter reg "sat.restarts";
    o_learned_size = Obs.Registry.histogram reg "sat.learned_clause_size";
    o_retired = Obs.Registry.counter reg "sat.retired_chains";
    o_carried = Obs.Registry.counter reg "sat.clauses_carried";
  }

let shared_watch_list_size () = Veci.size no_watches
let proof s = s.proof
let proof_size s = R.size s.proof
let trim_hints s = Veci.to_array s.retired
let num_vars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_learned s = s.learned
let num_restarts s = s.restarts

(* The decision heap, filled with every declared variable at its first
   use and kept up to date from then on: a solver that learns before
   deciding builds it over the activities its bumps left. *)
let order s =
  let h = s.order in
  if not s.order_built then begin
    for v = 0 to s.nvars - 1 do
      Heap.insert h s.activity v
    done;
    s.order_built <- true
  end;
  h

(* Make room for [n] variables: every per-variable array is
   reallocated at most once, to [n] slots or double its capacity,
   whichever is more (declaring a block sizes it exactly, declaring one
   at a time stays amortized O(1)). *)
let grow_arrays s n =
  let cap = Array.length s.assign in
  if n > cap then begin
    let cap' = Veci.grown_capacity cap n in
    let extend a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assign <- extend s.assign (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason (-1);
    s.activity <- extend s.activity 0.0;
    s.phase <- extend s.phase false;
    s.seen <- extend s.seen false;
    s.unit_pids <- extend s.unit_pids (-1);
    let wcap = Array.length s.watches in
    if 2 * cap' > wcap then begin
      let w = Array.make (2 * cap') no_watches in
      Array.blit s.watches 0 w 0 wcap;
      s.watches <- w
    end
  end

let ensure_vars s n =
  if n > s.nvars then begin
    grow_arrays s n;
    if s.order_built then
      for v = s.nvars to n - 1 do
        Heap.insert s.order s.activity v
      done;
    s.nvars <- n
  end

let new_var s =
  let v = s.nvars in
  ensure_vars s (v + 1);
  v

(* Back to the state [create] left, keeping every allocation: the
   per-variable arrays are refilled where variables were declared,
   watch lists emptied, the decision heap emptied (the next [order]
   refills it, as in a new solver) and the clause arena truncated.
   Registry handles and [reduce_base] stay. *)
let reset s =
  let n = s.nvars in
  Array.fill s.assign 0 n (-1);
  Array.fill s.level 0 n 0;
  Array.fill s.reason 0 n (-1);
  Array.fill s.activity 0 n 0.0;
  Array.fill s.phase 0 n false;
  Array.fill s.seen 0 n false;
  Array.fill s.unit_pids 0 n (-1);
  for l = 0 to (2 * n) - 1 do
    let w = s.watches.(l) in
    if w != no_watches then Veci.clear w
  done;
  s.lits_used <- 0;
  s.num_clauses <- 0;
  s.nvars <- 0;
  Veci.clear s.trail;
  Veci.clear s.trail_lim;
  s.qhead <- 0;
  Heap.clear s.order;
  s.order_built <- false;
  s.var_inc <- 1.0;
  s.unsat_root <- None;
  Veci.clear s.learned_indices;
  Veci.clear s.retired;
  s.live_learned <- 0;
  s.cla_inc <- 1.0;
  s.reductions <- 0;
  s.conflicts <- 0;
  s.decisions <- 0;
  s.propagations <- 0;
  s.learned <- 0;
  s.restarts <- 0

let scratch_clear s = Array.for_all not s.seen

(* Literal valuation: 1 true, 0 false, -1 unassigned. *)
let lit_value s l =
  let a = s.assign.(Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = Veci.size s.trail_lim

let enqueue s l reason_idx =
  assert (lit_value s l <> 0);
  if lit_value s l < 0 then begin
    let v = Lit.var l in
    s.assign.(v) <- 1 lxor (l land 1);
    s.level.(v) <- decision_level s;
    s.reason.(v) <- reason_idx;
    s.phase.(v) <- s.assign.(v) = 1;
    Veci.push s.trail l
  end

(* Append a clause of [n] literals to the arena and return its index;
   the caller writes its literals at [c_start] (after this call, which
   may reallocate [lits]). *)
let new_clause s n pid ~learned ~act =
  let ci = s.num_clauses in
  if ci = Array.length s.c_start then begin
    let cap = 2 * ci in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 ci;
      b
    in
    s.c_start <- extend s.c_start 0;
    s.c_size <- extend s.c_size 0;
    s.c_pid <- extend s.c_pid 0;
    s.c_learned <- extend s.c_learned false;
    s.c_deleted <- extend s.c_deleted false;
    s.c_act <- extend s.c_act 0.0
  end;
  let start = s.lits_used in
  let len = Array.length s.lits in
  if start + n > len then begin
    let lits = Array.make (Veci.grown_capacity len (start + n)) 0 in
    Array.blit s.lits 0 lits 0 start;
    s.lits <- lits
  end;
  s.c_start.(ci) <- start;
  s.c_size.(ci) <- n;
  s.c_pid.(ci) <- pid;
  s.c_learned.(ci) <- learned;
  s.c_deleted.(ci) <- false;
  s.c_act.(ci) <- act;
  s.lits_used <- start + n;
  s.num_clauses <- ci + 1;
  ci

let watch s l ci =
  if s.watches.(l) == no_watches then s.watches.(l) <- Veci.create ~capacity:4 ();
  Veci.push s.watches.(l) ci

(* The chain [chain_ants]/[chain_pivots] as a proof node: the single
   antecedent itself, or a new chain deriving [clause]. *)
let log_chain s clause =
  if Veci.size s.chain_ants = 1 then Veci.get s.chain_ants 0
  else
    R.add_chain s.proof ~clause ~antecedents:(Veci.to_array s.chain_ants)
      ~pivots:(Veci.to_array s.chain_pivots)

let start_chain s pid =
  Veci.clear s.chain_ants;
  Veci.clear s.chain_pivots;
  Veci.push s.chain_ants pid

(* Resolve on [v] with its reason clause [ri], and mark that clause's
   other variables in [seen]. *)
let resolve_reason s v ri =
  Veci.push s.chain_ants s.c_pid.(ri);
  Veci.push s.chain_pivots v;
  let start = s.c_start.(ri) in
  for k = start to start + s.c_size.(ri) - 1 do
    let u = Lit.var s.lits.(k) in
    if u <> v then s.seen.(u) <- true
  done

(* Derive the empty clause from clause [ci], falsified at level 0, by
   resolving every literal against the reason chain of its variable, in
   reverse trail order.  Returns the proof id of the empty clause. *)
let derive_empty_at_level0 s ci =
  assert (decision_level s = 0);
  start_chain s s.c_pid.(ci);
  (* [seen] marks the variables still to resolve away; each is on the
     trail below the point the walk has reached, so the walk clears
     every mark. *)
  let start = s.c_start.(ci) in
  for k = start to start + s.c_size.(ci) - 1 do
    let l = s.lits.(k) in
    assert (lit_value s l = 0);
    s.seen.(Lit.var l) <- true
  done;
  for idx = Veci.size s.trail - 1 downto 0 do
    let v = Lit.var (Veci.get s.trail idx) in
    if s.seen.(v) then begin
      s.seen.(v) <- false;
      let ri = s.reason.(v) in
      assert (ri >= 0);
      resolve_reason s v ri
    end
  done;
  log_chain s Clause.empty

let cancel_until s blevel =
  if decision_level s > blevel then begin
    let bound = Veci.get s.trail_lim blevel in
    for idx = Veci.size s.trail - 1 downto bound do
      let v = Lit.var (Veci.get s.trail idx) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      let h = order s in
      if not (Heap.mem h v) then Heap.insert h s.activity v
    done;
    Veci.shrink s.trail bound;
    Veci.shrink s.trail_lim blevel;
    s.qhead <- bound
  end

let set_unsat s root = if Option.is_none s.unsat_root then s.unsat_root <- Some root

let add_clause_with_pid s c pid =
  ensure_vars s (Clause.max_var c + 1);
  (* Clauses may arrive between incremental queries: return to the
     root level so watch initialization sees only level-0 truths. *)
  cancel_until s 0;
  if Clause.is_empty c then set_unsat s pid
  else begin
    let n = Clause.size c in
    let ci = new_clause s n pid ~learned:false ~act:0.0 in
    let lits = s.lits and start = s.c_start.(ci) in
    Array.blit (c :> int array) 0 lits start n;
    (* Order literals so the first two are non-false when possible
       (clauses are only added at level 0). *)
    let k = ref start in
    for i = start to start + n - 1 do
      let l = lits.(i) in
      if lit_value s l <> 0 then begin
        lits.(i) <- lits.(!k);
        lits.(!k) <- l;
        incr k
      end
    done;
    let k = !k - start in
    if k = 0 then
      (* Every literal is already false at level 0. *)
      set_unsat s (derive_empty_at_level0 s ci)
    else if n = 1 || k = 1 then begin
      if lit_value s lits.(start) < 0 then enqueue s lits.(start) ci;
      if n >= 2 then begin
        watch s lits.(start) ci;
        watch s lits.(start + 1) ci
      end
    end
    else begin
      watch s lits.(start) ci;
      watch s lits.(start + 1) ci
    end
  end

let add_clause ?(assumption = false) s c =
  add_clause_with_pid s c (R.add_leaf ~assumption s.proof c)

(* Register a clause already derived in the proof store (a lemma): no
   new leaf is created, so checkers see the derivation instead. *)
let add_derived_clause s c pid = add_clause_with_pid s c pid

let add_formula s f =
  ensure_vars s (Cnf.Formula.num_vars f);
  Cnf.Formula.iter (fun c -> add_clause s c) f

(* Two-watched-literal propagation.  Returns the arena index of a
   conflicting clause, or -1. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < Veci.size s.trail do
    let p = Veci.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    Obs.Counter.incr s.o_propagations;
    let false_lit = Lit.neg p in
    let wl = s.watches.(false_lit) in
    let n = Veci.size wl in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = Veci.get wl !i in
      incr i;
      if not s.c_deleted.(ci) then begin
        let lits = s.lits and start = s.c_start.(ci) in
        (* Normalize: watched false literal in position 1. *)
        if lits.(start) = false_lit then begin
          lits.(start) <- lits.(start + 1);
          lits.(start + 1) <- false_lit
        end;
        if lit_value s lits.(start) = 1 then begin
          Veci.set wl !keep ci;
          incr keep
        end
        else begin
          (* Look for a replacement watch. *)
          let stop = start + s.c_size.(ci) in
          let k = ref (start + 2) in
          while !k < stop && lit_value s lits.(!k) = 0 do
            incr k
          done;
          if !k < stop then begin
            lits.(start + 1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch s lits.(start + 1) ci
          end
          else begin
            (* Unit or conflict. *)
            Veci.set wl !keep ci;
            incr keep;
            if lit_value s lits.(start) = 0 then begin
              (* Conflict: retain the remaining watchers. *)
              while !i < n do
                Veci.set wl !keep (Veci.get wl !i);
                incr keep;
                incr i
              done;
              confl := ci
            end
            else enqueue s lits.(start) ci
          end
        end
      end
    done;
    if !keep < n then Veci.shrink wl !keep
  done;
  !confl

let bump_clause s ci =
  if s.c_learned.(ci) then begin
    let act = s.c_act.(ci) +. s.cla_inc in
    s.c_act.(ci) <- act;
    if act > 1e20 then begin
      for k = 0 to Veci.size s.learned_indices - 1 do
        let i = Veci.get s.learned_indices k in
        s.c_act.(i) <- s.c_act.(i) *. 1e-20
      done;
      s.cla_inc <- s.cla_inc *. 1e-20
    end
  end

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.order_built then Heap.update s.order s.activity v

let decay s =
  s.var_inc <- s.var_inc /. 0.95;
  s.cla_inc <- s.cla_inc /. 0.999

(* Self-subsumption minimization: a kept literal q is redundant when
   every literal of its reason (other than ~q) is already marked — i.e.
   in the clause or eliminated at level 0. *)
let removable s q =
  let v = Lit.var q in
  let ri = s.reason.(v) in
  ri >= 0
  &&
  let start = s.c_start.(ri) in
  let stop = start + s.c_size.(ri) in
  let k = ref start in
  while
    !k < stop
    &&
    let u = Lit.var s.lits.(!k) in
    u = v || s.seen.(u)
  do
    incr k
  done;
  !k = stop

(* First-UIP conflict analysis with proof logging.  Leaves the learned
   clause in [learnt], asserting literal first, and returns its proof
   id. *)
let analyze s confl_idx =
  let dl = decision_level s in
  assert (dl > 0);
  let learnt = s.learnt and to_clear = s.to_clear in
  Veci.clear learnt;
  Veci.clear to_clear;
  start_chain s s.c_pid.(confl_idx);
  let counter = ref 0 in
  bump_clause s confl_idx;
  let confl = ref confl_idx in
  let skip = ref (-1) in
  let idx = ref (Veci.size s.trail - 1) in
  let uip = ref (-1) in
  let continue = ref true in
  while !continue do
    let start = s.c_start.(!confl) in
    for k = start to start + s.c_size.(!confl) - 1 do
      let q = s.lits.(k) in
      let v = Lit.var q in
      if q <> !skip && not s.seen.(v) then begin
        s.seen.(v) <- true;
        if s.level.(v) > 0 then begin
          Veci.push to_clear v;
          bump_var s v;
          if s.level.(v) = dl then incr counter else Veci.push learnt q
        end
      end
    done;
    while not s.seen.(Lit.var (Veci.get s.trail !idx)) do
      decr idx
    done;
    let p = Veci.get s.trail !idx in
    decr idx;
    let v = Lit.var p in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then begin
      uip := p;
      continue := false
    end
    else begin
      let ri = s.reason.(v) in
      assert (ri >= 0);
      bump_clause s ri;
      confl := ri;
      Veci.push s.chain_ants s.c_pid.(ri);
      Veci.push s.chain_pivots v;
      skip := p
    end
  done;
  let kept = s.kept and removed = s.removed in
  Veci.clear kept;
  Veci.clear removed;
  for i = 0 to Veci.size learnt - 1 do
    let q = Veci.get learnt i in
    if removable s q then Veci.push removed q else Veci.push kept q
  done;
  (* Marks stay on removed literals: removal is decided in one pass over
     the original marks, and a removed literal whose reason mentions
     another removed literal is fine (that one is eliminated later in
     the chain). *)
  (* Resolve removed literals away, deepest trail position first.  Every
     level-[dl] mark was consumed above, so with the kept literals
     unmarked for a moment the marked variables above level 0 are
     exactly the removed ones, met in that order by a walk down the
     trail from the top of level [dl - 1]. *)
  let nremoved = Veci.size removed in
  if nremoved > 0 then begin
    for i = 0 to Veci.size kept - 1 do
      s.seen.(Lit.var (Veci.get kept i)) <- false
    done;
    Veci.clear removed;
    let idx = ref (Veci.get s.trail_lim (dl - 1) - 1) in
    while Veci.size removed < nremoved do
      let t = Veci.get s.trail !idx in
      let v = Lit.var t in
      if s.seen.(v) && s.level.(v) > 0 then Veci.push removed (Lit.neg t);
      decr idx
    done;
    for i = 0 to Veci.size kept - 1 do
      s.seen.(Lit.var (Veci.get kept i)) <- true
    done
  end;
  for i = 0 to nremoved - 1 do
    let v = Lit.var (Veci.get removed i) in
    let ri = s.reason.(v) in
    Veci.push s.chain_ants s.c_pid.(ri);
    Veci.push s.chain_pivots v;
    let start = s.c_start.(ri) in
    for k = start to start + s.c_size.(ri) - 1 do
      let u = Lit.var s.lits.(k) in
      if u <> v && not s.seen.(u) then begin
        (* Only level-0 literals can be unmarked here. *)
        assert (s.level.(u) = 0);
        s.seen.(u) <- true
      end
    done
  done;
  (* Eliminate level-0 literals by resolving with their reasons in
     reverse trail order.  With the marks above level 0 cleared, the
     marked variables are the level-0 ones still to eliminate; each
     reason's other literals sit lower on the trail, so the walk clears
     every mark. *)
  for i = 0 to Veci.size to_clear - 1 do
    s.seen.(Veci.get to_clear i) <- false
  done;
  let zero_bound = if Veci.size s.trail_lim > 0 then Veci.get s.trail_lim 0 else Veci.size s.trail in
  for tidx = zero_bound - 1 downto 0 do
    let v = Lit.var (Veci.get s.trail tidx) in
    if s.seen.(v) then begin
      s.seen.(v) <- false;
      resolve_reason s v s.reason.(v)
    end
  done;
  Veci.clear learnt;
  Veci.push learnt (Lit.neg !uip);
  for i = 0 to Veci.size kept - 1 do
    Veci.push learnt (Veci.get kept i)
  done;
  if Veci.size s.chain_ants = 1 then s.c_pid.(confl_idx)
  else log_chain s (Clause.of_array (Veci.to_array learnt))

(* Add the clause [analyze] left in [learnt] and assert its first
   literal, after backtracking to the highest level among the others. *)
let record_learned s pid =
  s.learned <- s.learned + 1;
  let learnt = s.learnt in
  let n = Veci.size learnt in
  Obs.Histogram.observe s.o_learned_size (float_of_int n);
  let uip_lit = Veci.get learnt 0 in
  if n = 1 then begin
    (* Unit learned clause: assert at level 0. *)
    cancel_until s 0;
    let ci = new_clause s 1 pid ~learned:true ~act:s.cla_inc in
    s.lits.(s.c_start.(ci)) <- uip_lit;
    enqueue s uip_lit ci
  end
  else begin
    (* Watch the asserting literal and one literal from the backtrack
       level: the first of the highest level, moved to position 1. *)
    let best = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(Lit.var (Veci.get learnt i)) > s.level.(Lit.var (Veci.get learnt !best)) then
        best := i
    done;
    Veci.swap learnt 1 !best;
    cancel_until s s.level.(Lit.var (Veci.get learnt 1));
    let ci = new_clause s n pid ~learned:true ~act:s.cla_inc in
    let start = s.c_start.(ci) in
    for i = 0 to n - 1 do
      s.lits.(start + i) <- Veci.get learnt i
    done;
    Veci.push s.learned_indices ci;
    s.live_learned <- s.live_learned + 1;
    watch s uip_lit ci;
    watch s s.lits.(start + 1) ci;
    enqueue s uip_lit ci
  end

(* Delete the lower-activity half of the learned clauses (proofs are
   untouched: the resolution store keeps every chain).  Binary and
   locked (currently-a-reason) clauses are kept; deleted clauses are
   dropped lazily from watch lists during propagation. *)
let locked s ci = s.c_size.(ci) > 0 && s.reason.(Lit.var s.lits.(s.c_start.(ci))) = ci

let reduce_db s =
  s.reductions <- s.reductions + 1;
  (* The live learned clauses, newest first, stably sorted by activity. *)
  let n = Veci.size s.learned_indices in
  let live = Array.make n 0 in
  let nlive = ref 0 in
  for k = n - 1 downto 0 do
    let ci = Veci.get s.learned_indices k in
    if not s.c_deleted.(ci) then begin
      live.(!nlive) <- ci;
      incr nlive
    end
  done;
  let sorted = Array.sub live 0 !nlive in
  Array.stable_sort (fun a b -> Float.compare s.c_act.(a) s.c_act.(b)) sorted;
  let to_remove = !nlive / 2 in
  let removed = ref 0 in
  Array.iter
    (fun ci ->
      if !removed < to_remove && s.c_size.(ci) > 2 && not (locked s ci) then begin
        s.c_deleted.(ci) <- true;
        (* The proof node stays (later chains may still cite it), but a
           clause the solver dropped is never an antecedent of a chain
           learned after this point — exactly the deletion hint a
           streaming certificate encoder wants. *)
        Veci.push s.retired s.c_pid.(ci);
        Obs.Counter.incr s.o_retired;
        incr removed;
        s.live_learned <- s.live_learned - 1
      end)
    sorted

let all_assigned s = Veci.size s.trail = s.nvars

let pick_branch s =
  let h = order s in
  let v = ref (-1) in
  while !v < 0 && not (Heap.is_empty h) do
    let x = Heap.pop h s.activity in
    if s.assign.(x) < 0 then v := x
  done;
  !v

(* The assumption literal [l] is false under the current trail; derive
   a clause over negated assumptions explaining why, by resolving the
   reason of [~l] against the reason chain of every non-decision
   literal (reverse trail order).  Decisions met on the way are
   assumptions, and their negations stay in the clause. *)
let analyze_final s l =
  let v0 = Lit.var l in
  let r0 = s.reason.(v0) in
  if r0 < 0 then
    (* [~l] was itself enqueued as an assumption: the assumption list
       contains a complementary pair.  No clause over the negated
       assumptions is derivable from the clauses alone (it would be the
       tautology [l | ~l], which resolution cannot produce and
       {!Clause.of_list} rejects), so answer with the trivial unit
       [~l] recorded as an assumption leaf: given the earlier
       assumption [~l], the later assumption [l] fails.  The sweeping
       engines never issue same-variable assumption pairs, so the leaf
       never reaches a certificate. *)
    let clause = Clause.singleton (Lit.neg l) in
    (clause, R.add_leaf ~assumption:true s.proof clause)
  else begin
    start_chain s s.c_pid.(r0);
    (* [seen] marks the variables still to explain; all were assigned
       before the walk reaches them, so it clears every mark. *)
    let kept = s.kept in
    Veci.clear kept;
    Veci.push kept (Lit.neg l);
    let start = s.c_start.(r0) in
    for k = start to start + s.c_size.(r0) - 1 do
      let u = Lit.var s.lits.(k) in
      if u <> v0 then s.seen.(u) <- true
    done;
    for idx = Veci.size s.trail - 1 downto 0 do
      let t = Veci.get s.trail idx in
      let v = Lit.var t in
      if s.seen.(v) then begin
        s.seen.(v) <- false;
        let ri = s.reason.(v) in
        if ri < 0 then Veci.push kept (Lit.neg t) else resolve_reason s v ri
      end
    done;
    let clause = Clause.of_array (Veci.to_array kept) in
    (clause, log_chain s clause)
  end

(* Truth value of [l] under the root-level (level-0) assignment only:
   1 true, 0 false, -1 not fixed at the root.  Root facts accumulate
   across incremental [solve] calls and are never undone. *)
let root_lit_value s l =
  let v = Lit.var l in
  if v >= s.nvars then -1
  else begin
    let a = s.assign.(v) in
    if a < 0 || s.level.(v) <> 0 then -1 else a lxor (l land 1)
  end

(* Derivation of the unit clause for the root-level assignment of [v],
   built by resolving [v]'s reason clause against the unit derivations
   of its other literals (all assigned earlier at level 0, so the
   recursion follows the trail backwards and terminates).  Every
   resolution step removes exactly one literal from the reason clause,
   so no intermediate resolvent can be tautological.  Memoized per
   variable: root facts are permanent and reason clauses of root
   assignments are locked, so the chains stay valid for the lifetime of
   the solver. *)
let rec unit_pid s v =
  let memo = s.unit_pids.(v) in
  if memo >= 0 then memo
  else begin
    let ri = s.reason.(v) in
    let n = s.c_size.(ri) in
    let pid =
      if n = 1 then s.c_pid.(ri)
      else begin
        (* The reason, then the other literals' units in clause order;
           each recursion logs its own chains first. *)
        let antecedents = Array.make n s.c_pid.(ri) and pivots = Array.make (n - 1) 0 in
        let j = ref 0 in
        for k = 0 to n - 1 do
          let w = Lit.var s.lits.(s.c_start.(ri) + k) in
          if w <> v then begin
            antecedents.(!j + 1) <- unit_pid s w;
            pivots.(!j) <- w;
            incr j
          end
        done;
        R.add_chain s.proof
          ~clause:(Clause.singleton (Lit.make v ~neg:(s.assign.(v) = 0)))
          ~antecedents ~pivots
      end
    in
    s.unit_pids.(v) <- pid;
    pid
  end

let derive_fixed s l =
  if root_lit_value s l <> 1 then None
  else begin
    let v = Lit.var l in
    (* Root-level assignments always carry a clause reason (units are
       enqueued with their arena index, propagations record theirs);
       the guard is purely defensive. *)
    if s.reason.(v) < 0 then None else Some (Clause.singleton l, unit_pid s v)
  end

let model s =
  Array.init s.nvars (fun v -> s.assign.(v) = 1)

(* Run unit propagation to fixpoint at the root level, so facts implied
   by recently added clauses become visible to [root_lit_value] and
   [derive_fixed] without a full [solve].  A root-level conflict makes
   the solver permanently unsatisfiable, exactly as in [solve]. *)
let propagate_root s =
  if Option.is_none s.unsat_root then begin
    cancel_until s 0;
    let confl = propagate s in
    if confl >= 0 then set_unsat s (derive_empty_at_level0 s confl)
  end

let solve ?max_conflicts ?(assumptions = []) s =
  match s.unsat_root with
  | Some root -> Unsat root
  | None ->
    cancel_until s 0;
    (* Learned clauses still live from previous [solve] calls — the
       carried-knowledge payoff of incremental use (0 on every call of
       a solver created or reset per query). *)
    Obs.Counter.add s.o_carried s.live_learned;
    let assumptions = Array.of_list assumptions in
    Array.iter (fun l -> ensure_vars s (Lit.var l + 1)) assumptions;
    let budget = match max_conflicts with Some b -> b | None -> max_int in
    let start_conflicts = s.conflicts in
    let restart_idx = ref 0 in
    let restart_budget = ref (100 * Luby.term 0) in
    let rec loop () =
      let confl = propagate s in
      if confl >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        Obs.Counter.incr s.o_conflicts;
        if decision_level s = 0 then begin
          let root = derive_empty_at_level0 s confl in
          set_unsat s root;
          Unsat root
        end
        else if s.conflicts - start_conflicts > budget then Unknown
        else begin
          record_learned s (analyze s confl);
          decay s;
          decr restart_budget;
          if s.live_learned > s.reduce_base + (1000 * s.reductions) then reduce_db s;
          loop ()
        end
      end
      else if !restart_budget <= 0 && decision_level s > 0 then begin
        s.restarts <- s.restarts + 1;
        Obs.Counter.incr s.o_restarts;
        incr restart_idx;
        restart_budget := 100 * Luby.term !restart_idx;
        cancel_until s 0;
        loop ()
      end
      else if decision_level s < Array.length assumptions then begin
        (* Re-establish assumptions as pseudo-decisions, one level
           each; levels of already-true assumptions stay empty. *)
        let a = assumptions.(decision_level s) in
        match lit_value s a with
        | 0 ->
          let clause, pid = analyze_final s a in
          Unsat_assuming { clause; pid }
        | value ->
          Veci.push s.trail_lim (Veci.size s.trail);
          if value < 0 then enqueue s a (-1);
          loop ()
      end
      else if all_assigned s then Sat (model s)
      else begin
        let v = pick_branch s in
        if v < 0 then Sat (model s)
        else begin
          s.decisions <- s.decisions + 1;
          Obs.Counter.incr s.o_decisions;
          Veci.push s.trail_lim (Veci.size s.trail);
          enqueue s (Lit.make v ~neg:(not s.phase.(v))) (-1);
          loop ()
        end
      end
    in
    loop ()
