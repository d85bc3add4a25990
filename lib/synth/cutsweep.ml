module Lit = Aig.Lit
module Cut = Aig.Cut

(* The mask of a [vars]-input truth table's meaningful bits. *)
let full_mask vars =
  if vars >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl vars)) 1L

(* Canonicalize a truth table under output complement so that f and
   ~f share a dictionary entry. *)
let canonical vars truth =
  let mask = full_mask vars in
  let truth = Int64.logand truth mask in
  let comp = Int64.logand (Int64.lognot truth) mask in
  if comp < truth then (comp, true) else (truth, false)

let reduce ?(k = 4) ?(max_cuts = 8) g =
  let cuts = Cut.enumerate g ~k ~max_cuts in
  let fresh = Aig.create ~num_inputs:(Aig.num_inputs g) in
  let map = Array.make (Aig.num_nodes g) Lit.false_ in
  for i = 0 to Aig.num_inputs g - 1 do
    map.(1 + i) <- Aig.input fresh i
  done;
  let map_lit l = Lit.apply_sign map.(Lit.var l) ~neg:(Lit.is_neg l) in
  (* (mapped leaf lits, canonical truth) -> mapped literal *)
  let dictionary : (int list * int64, Lit.t) Hashtbl.t = Hashtbl.create 4096 in
  let key_of cut =
    let leaves = Array.map (fun leaf -> map.(leaf)) cut.Cut.leaves in
    let truth, flipped = canonical (Array.length leaves) cut.Cut.truth in
    (Array.to_list leaves, truth, flipped)
  in
  Aig.iter_ands g (fun n ->
      let node_cuts =
        List.filter (fun c -> c.Cut.leaves <> [| n |]) cuts.(n)
      in
      (* Try to resubstitute an already-built literal. *)
      let matched =
        List.find_map
          (fun cut ->
            let leaves, truth, flipped = key_of cut in
            match Hashtbl.find_opt dictionary (leaves, truth) with
            | Some l -> Some (Lit.apply_sign l ~neg:flipped)
            | None -> None)
          node_cuts
      in
      let lit =
        match matched with
        | Some l -> l
        | None -> Aig.and_ fresh (map_lit (Aig.fanin0 g n)) (map_lit (Aig.fanin1 g n))
      in
      map.(n) <- lit;
      (* Register this node's cut functions for later matches. *)
      List.iter
        (fun cut ->
          let leaves, truth, flipped = key_of cut in
          let entry = Lit.apply_sign lit ~neg:flipped in
          if not (Hashtbl.mem dictionary (leaves, truth)) then
            Hashtbl.add dictionary (leaves, truth) entry)
        node_cuts);
  Array.iter (fun l -> Aig.add_output fresh (map_lit l)) (Aig.outputs g);
  Aig.cleanup fresh
