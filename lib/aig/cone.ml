(* Set [marks] to [mark] over the transitive fanin of node [n], not
   entering a node already marked, and push each node it marks onto
   [into] when given. *)
let rec walk g marks mark into n =
  if n <> 0 && marks.(n) <> mark then begin
    marks.(n) <- mark;
    (match into with Some acc -> Support.Veci.push acc n | None -> ());
    if Graph.is_and_node g n then begin
      walk g marks mark into (Lit.var (Graph.fanin0 g n));
      walk g marks mark into (Lit.var (Graph.fanin1 g n))
    end
  end

let rec walk_all g marks mark into = function
  | [] -> ()
  | l :: rest ->
    walk g marks mark into (Lit.var l);
    walk_all g marks mark into rest

let mark g ~marks ~mark lits = walk_all g marks mark None lits

let unmarked g ~marks ~mark lits =
  let acc = Support.Veci.create () in
  walk_all g marks mark (Some acc) lits;
  let nodes = Support.Veci.to_array acc in
  Array.sort Int.compare nodes;
  nodes

let support g lits =
  unmarked g ~marks:(Array.make (Graph.num_nodes g) 0) ~mark:1 lits
  |> Array.to_list
  |> List.filter (Graph.is_input_node g)
  |> List.map (fun n -> n - 1)
  |> Array.of_list
