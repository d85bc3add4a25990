module Clause = Cnf.Clause

type id = int

type node =
  | Leaf of { clause : Clause.t; assumption : bool }
  | Chain of { clause : Clause.t; antecedents : id array; pivots : int array }

type t = {
  mutable nodes : node array;
  mutable size : int;
  leaf_index : (Clause.t, id) Hashtbl.t;
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

let append_leaf t clause = new_leaf t clause ~assumption:false

let add_leaf ?(assumption = false) t clause =
  if assumption then new_leaf t clause ~assumption
  else
    match Hashtbl.find_opt t.leaf_index clause with
    | Some id -> id
    | None ->
      let id = append_leaf t clause in
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
  Array.iter
    (fun a -> if a < 0 || a >= t.size then invalid_arg "Resolution.add_chain: bad antecedent id")
    antecedents;
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

let reachable t ~root =
  let seen = Array.make t.size false in
  (* Iterative DFS: proofs can be hundreds of thousands of nodes deep. *)
  let stack = Support.Veci.create () in
  Support.Veci.push stack root;
  while not (Support.Veci.is_empty stack) do
    let id = Support.Veci.pop stack in
    if not seen.(id) then begin
      seen.(id) <- true;
      match t.nodes.(id) with
      | Leaf _ -> ()
      | Chain { antecedents; _ } -> Array.iter (Support.Veci.push stack) antecedents
    end
  done;
  let acc = ref [] in
  for id = t.size - 1 downto 0 do
    if seen.(id) then acc := id :: !acc
  done;
  Array.of_list !acc

let import dst src ~root ~map_leaf =
  let order = reachable src ~root in
  let map = Hashtbl.create (Array.length order) in
  Array.iter
    (fun id ->
      let dst_id =
        match node src id with
        | Leaf { clause; _ } -> map_leaf id clause
        | Chain { clause; antecedents; pivots } ->
          let antecedents = Array.map (Hashtbl.find map) antecedents in
          add_chain dst ~clause ~antecedents ~pivots
      in
      Hashtbl.add map id dst_id)
    order;
  Hashtbl.find map root

let import_mapped dst src ~root ~map_lit ~map_leaf =
  (* An injective literal renaming commutes with resolution, so the
     chains stay valid verbatim once clauses and pivots are mapped. *)
  let map_pivot v = Aig.Lit.var (map_lit (Aig.Lit.of_var v)) in
  let order = reachable src ~root in
  let map = Hashtbl.create (Array.length order) in
  Array.iter
    (fun id ->
      let dst_id =
        match node src id with
        | Leaf { clause; _ } -> map_leaf id (Clause.map_lits map_lit clause)
        | Chain { clause; antecedents; pivots } ->
          add_chain dst
            ~clause:(Clause.map_lits map_lit clause)
            ~antecedents:(Array.map (Hashtbl.find map) antecedents)
            ~pivots:(Array.map map_pivot pivots)
      in
      Hashtbl.add map id dst_id)
    order;
  Hashtbl.find map root

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
