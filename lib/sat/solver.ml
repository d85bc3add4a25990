module Veci = Support.Veci
module Clause = Cnf.Clause
module Lit = Aig.Lit
module R = Proof.Resolution

type clause_rec = {
  lits : int array;
  pid : R.id;
  learned : bool;
  mutable act : float;
  mutable deleted : bool;
}

type result =
  | Sat of bool array
  | Unsat of R.id
  | Unsat_assuming of { clause : Clause.t; pid : R.id }
  | Unknown

type t = {
  proof : R.t;
  mutable arena : clause_rec array;
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
  mutable watches : Veci.t array; (* per literal; [no_watches] until first watched *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  mutable order : Heap.t option; (* built lazily so [activity] can be swapped *)
  mutable spare_order : Heap.t option; (* emptied by [reset]; the next build refills it *)
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
  (* Ambient-registry handles, resolved once at [create] so the hot
     loops pay a single field increment. *)
  o_conflicts : Obs.Counter.t;
  o_decisions : Obs.Counter.t;
  o_propagations : Obs.Counter.t;
  o_restarts : Obs.Counter.t;
  o_learned_size : Obs.Histogram.t;
  o_retired : Obs.Counter.t;
  o_carried : Obs.Counter.t;
  unit_pids : (int, R.id) Hashtbl.t;
      (* var -> derivation of its root-level unit; see [unit_pid] *)
}

let dummy_clause = { lits = [||]; pid = -1; learned = false; act = 0.0; deleted = false }

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
    arena = Array.make 64 dummy_clause;
    num_clauses = 0;
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    watches = Array.make 32 no_watches;
    trail = Veci.create ();
    trail_lim = Veci.create ();
    qhead = 0;
    order = None;
    spare_order = None;
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
    o_conflicts = Obs.Registry.counter reg "sat.conflicts";
    o_decisions = Obs.Registry.counter reg "sat.decisions";
    o_propagations = Obs.Registry.counter reg "sat.propagations";
    o_restarts = Obs.Registry.counter reg "sat.restarts";
    o_learned_size = Obs.Registry.histogram reg "sat.learned_clause_size";
    o_retired = Obs.Registry.counter reg "sat.retired_chains";
    o_carried = Obs.Registry.counter reg "sat.clauses_carried";
    unit_pids = Hashtbl.create 64;
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

let order s =
  match s.order with
  | Some h -> h
  | None ->
    let h =
      match s.spare_order with Some h -> h | None -> Heap.create (fun v -> s.activity.(v))
    in
    for v = 0 to s.nvars - 1 do
      Heap.insert h v
    done;
    s.order <- Some h;
    h

(* Make room for [n] variables: every per-variable array is
   reallocated at most once, to [n] slots or double its capacity,
   whichever is more (declaring a block sizes it exactly, declaring one
   at a time stays amortized O(1)). *)
let grow_arrays s n =
  let cap = Array.length s.assign in
  if n > cap then begin
    let cap' = max n (2 * cap) in
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
    (match s.order with
    | Some h ->
      for v = s.nvars to n - 1 do
        Heap.insert h v
      done
    | None -> ());
    s.nvars <- n
  end

let new_var s =
  let v = s.nvars in
  ensure_vars s (v + 1);
  v

(* Back to the state [create] left, keeping every allocation: the
   per-variable arrays are refilled where variables were declared,
   watch lists emptied, the decision heap emptied (the next [order]
   rebuilds it, as in a new solver) and the clause database and
   counters dropped.  Registry handles and [reduce_base] stay. *)
let reset s =
  let n = s.nvars in
  Array.fill s.assign 0 n (-1);
  Array.fill s.level 0 n 0;
  Array.fill s.reason 0 n (-1);
  Array.fill s.activity 0 n 0.0;
  Array.fill s.phase 0 n false;
  Array.fill s.seen 0 n false;
  for l = 0 to (2 * n) - 1 do
    let w = s.watches.(l) in
    if w != no_watches then Veci.clear w
  done;
  Array.fill s.arena 0 s.num_clauses dummy_clause;
  s.num_clauses <- 0;
  s.nvars <- 0;
  Veci.clear s.trail;
  Veci.clear s.trail_lim;
  s.qhead <- 0;
  (match s.order with
  | Some h ->
    Heap.clear h;
    s.spare_order <- Some h;
    s.order <- None
  | None -> ());
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
  s.restarts <- 0;
  Hashtbl.clear s.unit_pids

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

let clause_ref s i = s.arena.(i)

let push_arena s cr =
  if s.num_clauses = Array.length s.arena then begin
    let a = Array.make (2 * s.num_clauses) dummy_clause in
    Array.blit s.arena 0 a 0 s.num_clauses;
    s.arena <- a
  end;
  s.arena.(s.num_clauses) <- cr;
  s.num_clauses <- s.num_clauses + 1;
  s.num_clauses - 1

let watch s l ci =
  if s.watches.(l) == no_watches then s.watches.(l) <- Veci.create ~capacity:4 ();
  Veci.push s.watches.(l) ci

(* Derive the empty clause from a clause falsified at level 0 by
   resolving every literal against the reason chain of its variable, in
   reverse trail order.  Returns the proof id of the empty clause. *)
let derive_empty_at_level0 s start_clause start_pid =
  assert (decision_level s = 0);
  let chain_ants = ref [ start_pid ] and chain_pivots = ref [] in
  (* [seen] marks the variables still to resolve away; each is on the
     trail below the point the walk has reached, so the walk clears
     every mark. *)
  let pending = s.seen in
  Array.iter
    (fun l ->
      assert (lit_value s l = 0);
      pending.(Lit.var l) <- true)
    (start_clause : Clause.t :> int array);
  for idx = Veci.size s.trail - 1 downto 0 do
    let t = Veci.get s.trail idx in
    let v = Lit.var t in
    if pending.(v) then begin
      pending.(v) <- false;
      let ri = s.reason.(v) in
      assert (ri >= 0);
      let cr = clause_ref s ri in
      chain_ants := cr.pid :: !chain_ants;
      chain_pivots := v :: !chain_pivots;
      Array.iter (fun l -> if Lit.var l <> v then pending.(Lit.var l) <- true) cr.lits
    end
  done;
  let antecedents = Array.of_list (List.rev !chain_ants) in
  let pivots = Array.of_list (List.rev !chain_pivots) in
  if Array.length antecedents = 1 then start_pid
  else R.add_chain s.proof ~clause:Clause.empty ~antecedents ~pivots

let cancel_until s blevel =
  if decision_level s > blevel then begin
    let bound = Veci.get s.trail_lim blevel in
    for idx = Veci.size s.trail - 1 downto bound do
      let v = Lit.var (Veci.get s.trail idx) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      let h = order s in
      if not (Heap.mem h v) then Heap.insert h v
    done;
    Veci.shrink s.trail bound;
    Veci.shrink s.trail_lim blevel;
    s.qhead <- bound
  end

let set_unsat s root = if s.unsat_root = None then s.unsat_root <- Some root

let add_clause_with_pid s c pid =
  ensure_vars s (Clause.max_var c + 1);
  (* Clauses may arrive between incremental queries: return to the
     root level so watch initialization sees only level-0 truths. *)
  cancel_until s 0;
  if Clause.is_empty c then set_unsat s pid
  else begin
    (* Order literals so the first two are non-false when possible
       (clauses are only added at level 0). *)
    let arr = Clause.lits c in
    let n = Array.length arr in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if lit_value s arr.(i) <> 0 then begin
        let tmp = arr.(!k) in
        arr.(!k) <- arr.(i);
        arr.(i) <- tmp;
        incr k
      end
    done;
    let ci = push_arena s { lits = arr; pid; learned = false; act = 0.0; deleted = false } in
    if !k = 0 then
      (* Every literal is already false at level 0. *)
      set_unsat s (derive_empty_at_level0 s c pid)
    else if n = 1 || !k = 1 then begin
      if lit_value s arr.(0) < 0 then enqueue s arr.(0) ci;
      if n >= 2 then begin
        watch s arr.(0) ci;
        watch s arr.(1) ci
      end
    end
    else begin
      watch s arr.(0) ci;
      watch s arr.(1) ci
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

exception Conflict of int

(* Two-watched-literal propagation.  Returns the arena index of a
   conflicting clause, or -1. *)
let propagate s =
  try
    while s.qhead < Veci.size s.trail do
      let p = Veci.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      Obs.Counter.incr s.o_propagations;
      let false_lit = Lit.neg p in
      let wl = s.watches.(false_lit) in
      let n = Veci.size wl in
      let keep = ref 0 in
      let i = ref 0 in
      (try
         while !i < n do
           let ci = Veci.get wl !i in
           incr i;
           let cr = clause_ref s ci in
           if cr.deleted then () else begin
           let lits = cr.lits in
           (* Normalize: watched false literal in position 1. *)
           if lits.(0) = false_lit then begin
             lits.(0) <- lits.(1);
             lits.(1) <- false_lit
           end;
           if lit_value s lits.(0) = 1 then begin
             Veci.set wl !keep ci;
             incr keep
           end
           else begin
             (* Look for a replacement watch. *)
             let len = Array.length lits in
             let rec find k = if k >= len then -1 else if lit_value s lits.(k) <> 0 then k else find (k + 1) in
             let k = find 2 in
             if k >= 0 then begin
               lits.(1) <- lits.(k);
               lits.(k) <- false_lit;
               watch s lits.(1) ci
             end
             else begin
               (* Unit or conflict. *)
               Veci.set wl !keep ci;
               incr keep;
               if lit_value s lits.(0) = 0 then begin
                 (* Conflict: retain the remaining watchers. *)
                 while !i < n do
                   Veci.set wl !keep (Veci.get wl !i);
                   incr keep;
                   incr i
                 done;
                 Veci.shrink wl !keep;
                 raise (Conflict ci)
               end
               else enqueue s lits.(0) ci
             end
           end
           end
         done;
         if !keep < n then Veci.shrink wl !keep
       with Conflict _ as e -> raise e)
    done;
    -1
  with Conflict ci -> ci

let bump_clause s ci =
  let cr = s.arena.(ci) in
  if cr.learned then begin
    cr.act <- cr.act +. s.cla_inc;
    if cr.act > 1e20 then begin
      Veci.iter (fun i -> s.arena.(i).act <- s.arena.(i).act *. 1e-20) s.learned_indices;
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
  match s.order with Some h -> Heap.update h v | None -> ()

let decay s =
  s.var_inc <- s.var_inc /. 0.95;
  s.cla_inc <- s.cla_inc /. 0.999

(* First-UIP conflict analysis with proof logging.  Returns
   (learned clause literals with the asserting literal first,
    backtrack level, proof id of the learned clause). *)
let analyze s confl_idx =
  let dl = decision_level s in
  assert (dl > 0);
  let learnt = Veci.create () in
  let to_clear = Veci.create () in
  let chain_ants = ref [ (clause_ref s confl_idx).pid ] in
  let chain_pivots = ref [] in
  let counter = ref 0 in
  let mark q =
    let v = Lit.var q in
    if not s.seen.(v) then begin
      s.seen.(v) <- true;
      if s.level.(v) > 0 then begin
        Veci.push to_clear v;
        bump_var s v;
        if s.level.(v) = dl then incr counter else Veci.push learnt q
      end
    end
  in
  bump_clause s confl_idx;
  let confl = ref confl_idx in
  let skip = ref (-1) in
  let idx = ref (Veci.size s.trail - 1) in
  let uip = ref (-1) in
  let continue = ref true in
  while !continue do
    Array.iter (fun q -> if q <> !skip then mark q) (clause_ref s !confl).lits;
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
      chain_ants := (clause_ref s ri).pid :: !chain_ants;
      chain_pivots := v :: !chain_pivots;
      skip := p
    end
  done;
  let uip_lit = Lit.neg !uip in
  (* Self-subsumption minimization: a kept literal q is redundant when
     every literal of its reason (other than ~q) is already marked —
     i.e. in the clause or eliminated at level 0. *)
  let removable q =
    let v = Lit.var q in
    let ri = s.reason.(v) in
    ri >= 0
    && Array.for_all
         (fun r -> Lit.var r = v || s.seen.(Lit.var r))
         (clause_ref s ri).lits
  in
  let kept = Veci.create () and removed = Veci.create () in
  Veci.iter (fun q -> if removable q then Veci.push removed q else Veci.push kept q) learnt;
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
    Veci.iter (fun q -> s.seen.(Lit.var q) <- false) kept;
    Veci.clear removed;
    let idx = ref (Veci.get s.trail_lim (dl - 1) - 1) in
    while Veci.size removed < nremoved do
      let t = Veci.get s.trail !idx in
      let v = Lit.var t in
      if s.seen.(v) && s.level.(v) > 0 then Veci.push removed (Lit.neg t);
      decr idx
    done;
    Veci.iter (fun q -> s.seen.(Lit.var q) <- true) kept
  end;
  Veci.iter
    (fun q ->
      let v = Lit.var q in
      let cr = clause_ref s s.reason.(v) in
      chain_ants := cr.pid :: !chain_ants;
      chain_pivots := v :: !chain_pivots;
      Array.iter
        (fun r ->
          let u = Lit.var r in
          if u <> v && not s.seen.(u) then begin
            (* Only level-0 literals can be unmarked here. *)
            assert (s.level.(u) = 0);
            s.seen.(u) <- true
          end)
        cr.lits)
    removed;
  (* Eliminate level-0 literals by resolving with their reasons in
     reverse trail order.  With the marks above level 0 cleared, the
     marked variables are the level-0 ones still to eliminate; each
     reason's other literals sit lower on the trail, so the walk clears
     every mark. *)
  Veci.iter (fun v -> s.seen.(v) <- false) to_clear;
  let zero_bound = if Veci.size s.trail_lim > 0 then Veci.get s.trail_lim 0 else Veci.size s.trail in
  for tidx = zero_bound - 1 downto 0 do
    let tl = Veci.get s.trail tidx in
    let v = Lit.var tl in
    if s.seen.(v) then begin
      s.seen.(v) <- false;
      let cr = clause_ref s s.reason.(v) in
      chain_ants := cr.pid :: !chain_ants;
      chain_pivots := v :: !chain_pivots;
      Array.iter (fun r -> if Lit.var r <> v then s.seen.(Lit.var r) <- true) cr.lits
    end
  done;
  let final_lits = uip_lit :: Veci.to_list kept in
  let clause = Clause.of_list final_lits in
  let antecedents = Array.of_list (List.rev !chain_ants) in
  let pivots = Array.of_list (List.rev !chain_pivots) in
  let pid =
    if Array.length antecedents = 1 then (clause_ref s confl_idx).pid
    else R.add_chain s.proof ~clause ~antecedents ~pivots
  in
  (* Backtrack to the second-highest level in the clause. *)
  let blevel = Veci.fold (fun acc q -> max acc s.level.(Lit.var q)) 0 kept in
  (uip_lit, Veci.to_array kept, blevel, pid, clause)

let record_learned s uip_lit kept blevel pid =
  s.learned <- s.learned + 1;
  let n = 1 + Array.length kept in
  Obs.Histogram.observe s.o_learned_size (float_of_int n);
  if n = 1 then begin
    (* Unit learned clause: assert at level 0. *)
    cancel_until s 0;
    let ci =
      push_arena s { lits = [| uip_lit |]; pid; learned = true; act = s.cla_inc; deleted = false }
    in
    enqueue s uip_lit ci
  end
  else begin
    (* Watch the asserting literal and one literal from blevel. *)
    let lits = Array.make n uip_lit in
    Array.blit kept 0 lits 1 (Array.length kept);
    let best = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(Lit.var lits.(i)) > s.level.(Lit.var lits.(!best)) then best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    cancel_until s blevel;
    let ci = push_arena s { lits; pid; learned = true; act = s.cla_inc; deleted = false } in
    Veci.push s.learned_indices ci;
    s.live_learned <- s.live_learned + 1;
    watch s lits.(0) ci;
    watch s lits.(1) ci;
    enqueue s uip_lit ci
  end

(* Delete the lower-activity half of the learned clauses (proofs are
   untouched: the resolution store keeps every chain).  Binary and
   locked (currently-a-reason) clauses are kept; deleted clauses are
   dropped lazily from watch lists during propagation. *)
let locked s ci =
  let cr = s.arena.(ci) in
  Array.length cr.lits > 0 && s.reason.(Lit.var cr.lits.(0)) = ci

let reduce_db s =
  s.reductions <- s.reductions + 1;
  let live =
    Veci.fold (fun acc ci -> if s.arena.(ci).deleted then acc else ci :: acc) [] s.learned_indices
  in
  let sorted = List.sort (fun a b -> compare s.arena.(a).act s.arena.(b).act) live in
  let to_remove = List.length sorted / 2 in
  let removed = ref 0 in
  List.iter
    (fun ci ->
      let cr = s.arena.(ci) in
      if !removed < to_remove && Array.length cr.lits > 2 && not (locked s ci) then begin
        cr.deleted <- true;
        (* The proof node stays (later chains may still cite it), but a
           clause the solver dropped is never an antecedent of a chain
           learned after this point — exactly the deletion hint a
           streaming certificate encoder wants. *)
        Veci.push s.retired cr.pid;
        Obs.Counter.incr s.o_retired;
        incr removed;
        s.live_learned <- s.live_learned - 1
      end)
    sorted

let all_assigned s = Veci.size s.trail = s.nvars

let pick_branch s =
  let h = order s in
  let rec loop () =
    if Heap.is_empty h then -1
    else
      let v = Heap.pop h in
      if s.assign.(v) < 0 then v else loop ()
  in
  loop ()

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
  let cr0 = clause_ref s r0 in
  let chain_ants = ref [ cr0.pid ] and chain_pivots = ref [] in
  (* [seen] marks the variables still to explain; all were assigned
     before the walk reaches them, so it clears every mark. *)
  let pending = s.seen in
  let kept = ref [ Lit.neg l ] in
  Array.iter (fun q -> if Lit.var q <> v0 then pending.(Lit.var q) <- true) cr0.lits;
  for idx = Veci.size s.trail - 1 downto 0 do
    let t = Veci.get s.trail idx in
    let v = Lit.var t in
    if pending.(v) then begin
      pending.(v) <- false;
      let ri = s.reason.(v) in
      if ri < 0 then kept := Lit.neg t :: !kept
      else begin
        let cr = clause_ref s ri in
        chain_ants := cr.pid :: !chain_ants;
        chain_pivots := v :: !chain_pivots;
        Array.iter (fun q -> if Lit.var q <> v then pending.(Lit.var q) <- true) cr.lits
      end
    end
  done;
  let clause = Clause.of_list !kept in
  let antecedents = Array.of_list (List.rev !chain_ants) in
  let pivots = Array.of_list (List.rev !chain_pivots) in
  let pid =
    if Array.length antecedents = 1 then cr0.pid
    else R.add_chain s.proof ~clause ~antecedents ~pivots
  in
  (clause, pid)
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
  match Hashtbl.find_opt s.unit_pids v with
  | Some pid -> pid
  | None ->
    let cr = clause_ref s s.reason.(v) in
    let t = Lit.make v ~neg:(s.assign.(v) = 0) in
    let pid =
      if Array.length cr.lits = 1 then cr.pid
      else begin
        let ants = ref [] and pivots = ref [] in
        Array.iter
          (fun q ->
            let w = Lit.var q in
            if w <> v then begin
              ants := unit_pid s w :: !ants;
              pivots := w :: !pivots
            end)
          cr.lits;
        R.add_chain s.proof
          ~clause:(Clause.singleton t)
          ~antecedents:(Array.of_list (cr.pid :: List.rev !ants))
          ~pivots:(Array.of_list (List.rev !pivots))
      end
    in
    Hashtbl.replace s.unit_pids v pid;
    pid

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
  if s.unsat_root = None then begin
    cancel_until s 0;
    let confl = propagate s in
    if confl >= 0 then begin
      let cr = clause_ref s confl in
      let root = derive_empty_at_level0 s (Clause.of_array cr.lits) cr.pid in
      set_unsat s root
    end
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
          let cr = clause_ref s confl in
          let root = derive_empty_at_level0 s (Clause.of_array cr.lits) cr.pid in
          set_unsat s root;
          Unsat root
        end
        else if s.conflicts - start_conflicts > budget then Unknown
        else begin
          let uip_lit, kept, blevel, pid, _clause = analyze s confl in
          record_learned s uip_lit kept blevel pid;
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
