module Clause = Cnf.Clause
module Lit = Aig.Lit
module R = Resolution
module Veci = Support.Veci

exception Lift_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lift_error s)) fmt

type handles = {
  o_lifts : Obs.Counter.t;
  o_lift_nodes : Obs.Counter.t;
  o_lift_depth : Obs.Histogram.t;
}

(* Arrays indexed by the ids of the proof being lifted, grown on demand.
   The lifted image of a node is a node of the same proof, or -1 when
   it is dropped (assumption leaves); its clause is that node's. *)
type scratch = {
  order : Veci.t; (* the refutation's nodes, ascending *)
  mutable image : R.id array;
  mutable depth : int array;
  (* The replay of one chain: the running clause, derived from node
     [base] (-1 while every antecedent so far was dropped) by the kept
     steps, is the set of literals marked in [in_acc] (indexed by
     literal).  [acc] lists them, with literals since resolved away and
     unmarked; a restart unmarks the list and empties it. *)
  mutable base : R.id;
  mutable in_acc : Bytes.t;
  acc : Veci.t;
  step_ants : Veci.t;
  step_pivots : Veci.t;
  mutable handles : handles option; (* resolved at the first lift *)
}

let scratch () =
  {
    order = Veci.create ();
    image = Array.make 64 0;
    depth = Array.make 64 0;
    base = -1;
    in_acc = Bytes.make 64 '\000';
    acc = Veci.create ();
    step_ants = Veci.create ();
    step_pivots = Veci.create ();
    handles = None;
  }

let handles sc =
  match sc.handles with
  | Some h -> h
  | None ->
    let reg = Obs.ambient () in
    let h =
      {
        o_lifts = Obs.Registry.counter reg "proof.lifts";
        o_lift_nodes = Obs.Registry.counter reg "proof.lift_nodes";
        o_lift_depth = Obs.Registry.histogram reg "proof.lift_depth";
      }
    in
    sc.handles <- Some h;
    h

let in_acc sc l = l < Bytes.length sc.in_acc && Bytes.get sc.in_acc l <> '\000'

let add_to_acc sc l =
  let len = Bytes.length sc.in_acc in
  if l >= len then begin
    let b = Bytes.make (Veci.grown_capacity len (l + 1)) '\000' in
    Bytes.blit sc.in_acc 0 b 0 len;
    sc.in_acc <- b
  end;
  if Bytes.get sc.in_acc l = '\000' then begin
    Bytes.set sc.in_acc l '\001';
    Veci.push sc.acc l
  end

(* Start the replay afresh from image [img], unless it is dropped. *)
let restart proof sc img =
  if img >= 0 then begin
    sc.base <- img;
    for i = 0 to Veci.size sc.acc - 1 do
      Bytes.set sc.in_acc (Veci.get sc.acc i) '\000'
    done;
    Veci.clear sc.acc;
    let c = (R.clause_of proof img :> int array) in
    for i = 0 to Array.length c - 1 do
      add_to_acc sc c.(i)
    done;
    Veci.clear sc.step_ants;
    Veci.clear sc.step_pivots
  end

(* Resolve the running clause with [c] on [pivot]: the pivot's literals
   leave, [c]'s others join.  A second clashing variable would make a
   tautology. *)
let resolve_into sc id c pivot =
  let pos = Lit.of_var pivot in
  Bytes.set sc.in_acc pos '\000';
  if Lit.neg pos < Bytes.length sc.in_acc then Bytes.set sc.in_acc (Lit.neg pos) '\000';
  let c = (c : Clause.t :> int array) in
  for i = 0 to Array.length c - 1 do
    let l = c.(i) in
    if Lit.var l <> pivot then begin
      if in_acc sc (Lit.neg l) then
        fail "chain %d: lifted replay failed: %s" id
          "Clause: tautology (both polarities of a variable)";
      add_to_acc sc l
    end
  done

(* The running clause, after its last step. *)
let acc_clause sc =
  let lits = Veci.create ~capacity:(Veci.size sc.acc) () in
  for i = 0 to Veci.size sc.acc - 1 do
    let l = Veci.get sc.acc i in
    if Bytes.get sc.in_acc l <> '\000' then begin
      Bytes.set sc.in_acc l '\000';
      Veci.push lits l
    end
  done;
  Veci.clear sc.acc;
  Clause.of_array (Veci.to_array lits)

(* Whether the kept steps are exactly the chain's own: then the replay
   changed nothing. *)
let unchanged sc antecedents pivots =
  let n = Veci.size sc.step_pivots in
  sc.base = antecedents.(0)
  && n = Array.length pivots
  &&
  let i = ref 0 in
  while
    !i < n
    && Veci.get sc.step_pivots !i = pivots.(!i)
    && Veci.get sc.step_ants !i = antecedents.(!i + 1)
  do
    incr i
  done;
  !i = n

(* Replay chain [id] over the lifted antecedents and return its image. *)
let lift_chain proof sc id antecedents pivots =
  let image = sc.image in
  sc.base <- -1;
  restart proof sc image.(antecedents.(0));
  for i = 0 to Array.length pivots - 1 do
    let img = image.(antecedents.(i + 1)) in
    if sc.base < 0 then
      (* Everything so far was dropped; restart from this side. *)
      restart proof sc img
    else if img >= 0 then begin
      let c = R.clause_of proof img in
      let pivot = pivots.(i) in
      let pos = Lit.of_var pivot in
      let neg = Lit.neg pos in
      let acc_has_pos = in_acc sc pos and acc_has_neg = in_acc sc neg in
      if (acc_has_pos && Clause.mem neg c) || (acc_has_neg && Clause.mem pos c) then begin
        resolve_into sc id c pivot;
        Veci.push sc.step_ants img;
        Veci.push sc.step_pivots pivot
      end
      else if acc_has_pos || acc_has_neg then
        (* The other side lost its pivot literal; it subsumes the
           original resolvent on its own, so restart from it. *)
        restart proof sc img
      (* else the pivot is already gone from the running clause: the
         step is redundant. *)
    end
  done;
  if sc.base < 0 || Veci.size sc.step_ants = 0 then sc.base
  else if unchanged sc antecedents pivots then
    (* Reuse the original node when the replay changed nothing. *)
    id
  else begin
    let n = Veci.size sc.step_ants in
    let antecedents' = Array.make (n + 1) sc.base in
    for k = 0 to n - 1 do
      antecedents'.(k + 1) <- Veci.get sc.step_ants k
    done;
    R.add_chain proof ~clause:(acc_clause sc) ~antecedents:antecedents'
      ~pivots:(Veci.to_array sc.step_pivots)
  end

let refutation ~scratch:sc proof ~root =
  if not (Clause.is_empty (R.clause_of proof root)) then
    fail "root %d is not an empty clause" root;
  let h = handles sc in
  Obs.Counter.incr h.o_lifts;
  let order = sc.order in
  R.reachable_into proof ~root order;
  Obs.Counter.add h.o_lift_nodes (Veci.size order);
  if Array.length sc.image <= root then begin
    let n = Veci.grown_capacity (Array.length sc.image) (root + 1) in
    sc.image <- Array.make n 0;
    sc.depth <- Array.make n 0
  end;
  let image = sc.image and depth = sc.depth in
  let max_depth = ref 0 in
  for i = 0 to Veci.size order - 1 do
    let id = Veci.get order i in
    match R.node proof id with
    | R.Leaf { assumption; _ } ->
      image.(id) <- (if assumption then -1 else id);
      depth.(id) <- 0
    | R.Chain { antecedents; pivots; _ } ->
      let d = ref 0 in
      for k = 0 to Array.length antecedents - 1 do
        let da = depth.(antecedents.(k)) in
        if da > !d then d := da
      done;
      depth.(id) <- !d + 1;
      if !d + 1 > !max_depth then max_depth := !d + 1;
      image.(id) <- lift_chain proof sc id antecedents pivots
  done;
  Obs.Histogram.observe h.o_lift_depth (float_of_int !max_depth);
  let lifted = image.(root) in
  if lifted < 0 then fail "refutation consisted only of assumptions";
  (lifted, R.clause_of proof lifted)
