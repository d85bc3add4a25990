module Clause = Cnf.Clause
module Veci = Support.Veci

type id = int

type node =
  | Leaf of { clause : Clause.t; assumption : bool }
  | Chain of { clause : Clause.t; antecedents : id array; pivots : int array }

type t = {
  mutable nodes : node array;
  mutable size : int;
  leaf_index : (Clause.t, id) Hashtbl.t;
  (* Scratch of [reachable_into] and [import], indexed by node id and
     grown on demand.  It belongs to this store, so stores used on
     different domains share nothing. *)
  mutable marks : Bytes.t; (* all zero between calls *)
  mutable image : id array; (* [import]: a node's id in the destination *)
  stack : Veci.t;
  order : Veci.t;
  (* Ambient-registry handles resolved at [create]: node creation is a
     hot path during conflict analysis. *)
  o_leaves : Obs.Counter.t;
  o_chains : Obs.Counter.t;
}

let dummy = Leaf { clause = Clause.empty; assumption = false }

let create () =
  let reg = Obs.ambient () in
  {
    nodes = Array.make 64 dummy;
    size = 0;
    leaf_index = Hashtbl.create 64;
    marks = Bytes.make 64 '\000';
    image = Array.make 64 0;
    stack = Veci.create ();
    order = Veci.create ();
    o_leaves = Obs.Registry.counter reg "proof.leaves";
    o_chains = Obs.Registry.counter reg "proof.chains";
  }

let size t = t.size

let append t n =
  if t.size = Array.length t.nodes then begin
    let nodes = Array.make (2 * t.size) dummy in
    Array.blit t.nodes 0 nodes 0 t.size;
    t.nodes <- nodes
  end;
  t.nodes.(t.size) <- n;
  t.size <- t.size + 1;
  t.size - 1

let new_leaf t clause ~assumption =
  Obs.Counter.incr t.o_leaves;
  append t (Leaf { clause; assumption })

let append_leaf_node t n =
  match n with
  | Leaf { assumption = false; _ } ->
    Obs.Counter.incr t.o_leaves;
    append t n
  | Leaf { assumption = true; _ } | Chain _ ->
    invalid_arg "Resolution.append_leaf_node: not a non-assumption leaf"

let add_leaf ?(assumption = false) t clause =
  if assumption then new_leaf t clause ~assumption
  else
    match Hashtbl.find_opt t.leaf_index clause with
    | Some id -> id
    | None ->
      let id = new_leaf t clause ~assumption:false in
      Hashtbl.add t.leaf_index clause id;
      id

let clear t =
  Array.fill t.nodes 0 t.size dummy;
  t.size <- 0;
  Hashtbl.clear t.leaf_index

let add_chain t ~clause ~antecedents ~pivots =
  let n = Array.length antecedents in
  if n < 2 || Array.length pivots <> n - 1 then
    invalid_arg "Resolution.add_chain: need k+1 antecedents for k pivots, k >= 1";
  for i = 0 to n - 1 do
    let a = antecedents.(i) in
    if a < 0 || a >= t.size then invalid_arg "Resolution.add_chain: bad antecedent id"
  done;
  Obs.Counter.incr t.o_chains;
  append t (Chain { clause; antecedents; pivots })

let node t id =
  if id < 0 || id >= t.size then invalid_arg "Resolution.node: bad id";
  t.nodes.(id)

let clause_of t id =
  match node t id with
  | Leaf { clause; _ } | Chain { clause; _ } -> clause

let is_assumption t id =
  match node t id with
  | Leaf { assumption; _ } -> assumption
  | Chain _ -> false

let iter f t =
  for id = 0 to t.size - 1 do
    f id t.nodes.(id)
  done

(* Iterative DFS: proofs can be hundreds of thousands of nodes deep.
   [marks] covers ids up to [root] and is all zero before and after;
   [out] receives the reachable ids in increasing order. *)
let walk t ~root marks stack out =
  Veci.clear stack;
  Veci.push stack root;
  while not (Veci.is_empty stack) do
    let id = Veci.pop stack in
    if Bytes.get marks id = '\000' then begin
      Bytes.set marks id '\001';
      match t.nodes.(id) with
      | Leaf _ -> ()
      | Chain { antecedents; _ } ->
        for i = 0 to Array.length antecedents - 1 do
          Veci.push stack antecedents.(i)
        done
    end
  done;
  (* Every reachable id is at most [root]: antecedents precede their
     chain.  The scan lists them in order and clears every mark. *)
  Veci.clear out;
  for id = 0 to root do
    if Bytes.get marks id <> '\000' then begin
      Bytes.set marks id '\000';
      Veci.push out id
    end
  done

let check_root t root =
  if root < 0 || root >= t.size then invalid_arg "Resolution.reachable: bad root"

let reachable t ~root =
  check_root t root;
  let out = Veci.create () in
  walk t ~root (Bytes.make (root + 1) '\000') (Veci.create ()) out;
  Veci.to_array out

let reachable_into t ~root out =
  check_root t root;
  if Bytes.length t.marks <= root then
    t.marks <- Bytes.make (Veci.grown_capacity (Bytes.length t.marks) (root + 1)) '\000';
  walk t ~root t.marks t.stack out

let import dst src ~root ~map_leaf =
  let order = src.order in
  reachable_into src ~root order;
  if Array.length src.image <= root then
    src.image <- Array.make (Veci.grown_capacity (Array.length src.image) (root + 1)) 0;
  let image = src.image in
  for i = 0 to Veci.size order - 1 do
    let id = Veci.get order i in
    image.(id) <-
      (match src.nodes.(id) with
      | Leaf { clause; _ } -> map_leaf id clause
      | Chain { clause; antecedents; pivots } ->
        let n = Array.length antecedents in
        let mapped = Array.make n 0 in
        for k = 0 to n - 1 do
          mapped.(k) <- image.(antecedents.(k))
        done;
        add_chain dst ~clause ~antecedents:mapped ~pivots)
  done;
  image.(root)

let recompute_chain t ~antecedents ~pivots =
  let acc = ref (clause_of t antecedents.(0)) in
  Array.iteri
    (fun i pivot -> acc := Clause.resolve_on !acc (clause_of t antecedents.(i + 1)) ~pivot)
    pivots;
  !acc

let pp_node fmt = function
  | Leaf { clause; assumption } ->
    Format.fprintf fmt "leaf%s %a" (if assumption then "*" else "") Clause.pp clause
  | Chain { clause; antecedents; pivots } ->
    Format.fprintf fmt "chain %a <-" Clause.pp clause;
    Array.iteri
      (fun i a ->
        if i = 0 then Format.fprintf fmt " %d" a
        else Format.fprintf fmt " [%d] %d" pivots.(i - 1) a)
      antecedents
