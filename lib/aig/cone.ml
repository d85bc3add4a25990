let unmarked g ~marks ~mark lits =
  let acc = Support.Veci.create () in
  let rec visit n =
    if n <> 0 && marks.(n) <> mark then begin
      marks.(n) <- mark;
      Support.Veci.push acc n;
      if Graph.is_and_node g n then begin
        visit (Lit.var (Graph.fanin0 g n));
        visit (Lit.var (Graph.fanin1 g n))
      end
    end
  in
  List.iter (fun l -> visit (Lit.var l)) lits;
  let nodes = Support.Veci.to_array acc in
  Array.sort Int.compare nodes;
  nodes

let support g lits =
  unmarked g ~marks:(Array.make (Graph.num_nodes g) 0) ~mark:1 lits
  |> Array.to_list
  |> List.filter (Graph.is_input_node g)
  |> List.map (fun n -> n - 1)
  |> Array.of_list
