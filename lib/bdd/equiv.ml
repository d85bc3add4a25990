type verdict =
  | Equivalent
  | Inequivalent of bool array
  | Blowup

type report = { verdict : verdict; bdd_nodes : int }

(* Inputs in first-visit order of a DFS from the outputs: a cheap
   static-order heuristic that interleaves operands of chained
   datapaths (a0 b0 a1 b1 ... for a ripple adder). *)
let dfs_order a b =
  let n = Aig.num_inputs a in
  let position = Array.make n (-1) in
  let next = ref 0 in
  let visit_graph g =
    let seen = Array.make (Aig.num_nodes g) false in
    let rec visit node =
      if node <> 0 && not seen.(node) then begin
        seen.(node) <- true;
        if Aig.is_input_node g node then begin
          let i = node - 1 in
          if position.(i) < 0 then begin
            position.(i) <- !next;
            incr next
          end
        end
        else begin
          visit (Aig.Lit.var (Aig.fanin0 g node));
          visit (Aig.Lit.var (Aig.fanin1 g node))
        end
      end
    in
    Array.iter (fun l -> visit (Aig.Lit.var l)) (Aig.outputs g)
  in
  visit_graph a;
  visit_graph b;
  (* Unreferenced inputs take the remaining positions. *)
  Array.iteri
    (fun i p ->
      if p < 0 then begin
        position.(i) <- !next;
        incr next
      end)
    position;
  position

let check ?max_nodes a b =
  if Aig.num_inputs a <> Aig.num_inputs b then invalid_arg "Equiv.check: input counts differ";
  if Aig.num_outputs a <> Aig.num_outputs b then invalid_arg "Equiv.check: output counts differ";
  let order = dfs_order a b in
  let t = Manager.create ?max_nodes ~num_vars:(Aig.num_inputs a) () in
  match
    let outs_a = Manager.of_aig ~order t a in
    let outs_b = Manager.of_aig ~order t b in
    let rec compare_outputs i =
      if i >= Array.length outs_a then Equivalent
      else if outs_a.(i) = outs_b.(i) then compare_outputs (i + 1)
      else
        let diff = Manager.xor_ t outs_a.(i) outs_b.(i) in
        match Manager.any_sat t diff with
        | Some by_bdd_var ->
          (* Map the model back from BDD variables to input indices. *)
          Inequivalent (Array.init (Aig.num_inputs a) (fun i -> by_bdd_var.(order.(i))))
        | None -> compare_outputs (i + 1)
    in
    compare_outputs 0
  with
  | verdict -> { verdict; bdd_nodes = Manager.size t }
  | exception Manager.Node_limit -> { verdict = Blowup; bdd_nodes = Manager.size t }
