module Lit = Aig.Lit

let constant_unit = Clause.singleton Lit.true_

let clauses_of_and g n =
  let f0 = Aig.fanin0 g n and f1 = Aig.fanin1 g n in
  let ln = Lit.of_var n in
  [
    Clause.of_list [ Lit.neg ln; f0 ];
    Clause.of_list [ Lit.neg ln; f1 ];
    Clause.of_list [ ln; Lit.neg f0; Lit.neg f1 ];
  ]

let add_and f g n = List.iter (fun c -> ignore (Formula.add f c)) (clauses_of_and g n)

let of_graph g =
  let f = Formula.create () in
  ignore (Formula.add f constant_unit);
  Aig.iter_ands g (fun n -> add_and f g n);
  Formula.ensure_vars f (Aig.num_nodes g);
  f

let miter_formula g =
  if Aig.num_outputs g <> 1 then invalid_arg "Tseitin.miter_formula: expected one output";
  let f = of_graph g in
  ignore (Formula.add f (Clause.singleton (Aig.output g 0)));
  f

(* Graph fanins satisfy [f0 < f1] on distinct variables below [n]
   ([Aig.and_] normalizes and folds), so the sorted clauses of node [n]
   are [f0 ~n], [f1 ~n] and [~f0 ~f1 n]: the node's literal is always
   the last one. *)
let graph_mem g (c : Clause.t) =
  let lits = (c :> int array) in
  match Array.length lits with
  | 1 -> lits.(0) = Lit.true_
  | (2 | 3) as k ->
    let last = lits.(k - 1) in
    let n = Lit.var last in
    Aig.is_and_node g n
    &&
    let f0 = Aig.fanin0 g n and f1 = Aig.fanin1 g n in
    if k = 2 then Lit.is_neg last && (lits.(0) = f0 || lits.(0) = f1)
    else (not (Lit.is_neg last)) && lits.(0) = Lit.neg f0 && lits.(1) = Lit.neg f1
  | _ -> false

let miter_mem g =
  if Aig.num_outputs g <> 1 then invalid_arg "Tseitin.miter_mem: expected one output";
  let out = Aig.output g 0 in
  fun (c : Clause.t) ->
    graph_mem g c || (Clause.size c = 1 && (c :> int array).(0) = out)
