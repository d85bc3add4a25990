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
