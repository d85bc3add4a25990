let check_interfaces a b =
  if Graph.num_inputs a <> Graph.num_inputs b then
    invalid_arg "Miter.build: input counts differ";
  if Graph.num_outputs a <> Graph.num_outputs b then
    invalid_arg "Miter.build: output counts differ";
  if Graph.num_outputs a = 0 then invalid_arg "Miter.build: circuits have no outputs"

let build_common a b =
  check_interfaces a b;
  let g = Graph.create ~num_inputs:(Graph.num_inputs a) in
  let inputs = Array.init (Graph.num_inputs a) (Graph.input g) in
  let outs_a = Graph.append g a ~inputs in
  let outs_b = Graph.append g b ~inputs in
  let diffs = Array.map2 (Graph.xor_ g) outs_a outs_b in
  (g, diffs)

let build a b =
  let g, diffs = build_common a b in
  Graph.add_output g (Graph.or_list g (Array.to_list diffs));
  g

let build_pairwise a b =
  let g, diffs = build_common a b in
  Array.iter (Graph.add_output g) diffs;
  g

let of_lits g a b = Graph.xor_ g a b
