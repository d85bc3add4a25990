module Clause = Cnf.Clause
module Lit = Aig.Lit
module R = Resolution

exception Lift_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lift_error s)) fmt

(* The lifted image of a node: either dropped (assumption leaves), or a
   node of the same proof together with its clause. *)
type image =
  | Dropped
  | Kept of { id : R.id; clause : Clause.t }

let lift_chain proof lifted id antecedents pivots =
  (* Replay one chain over the lifted antecedents.  [base] is the id
     whose clause the pending steps start from; [steps] are the kept
     (pivot, antecedent) pairs in reverse order. *)
  let image_of a =
    match Hashtbl.find_opt lifted a with
    | Some img -> img
    | None -> fail "chain %d references an unprocessed antecedent %d" id a
  in
  let state = ref None in
  (* state = Some (base_id, steps_rev, current_clause) *)
  let start img =
    match img with
    | Dropped -> ()
    | Kept { id; clause } -> state := Some (id, [], clause)
  in
  start (image_of antecedents.(0));
  Array.iteri
    (fun i pivot ->
      let img = image_of antecedents.(i + 1) in
      match (!state, img) with
      | None, img ->
        (* Everything so far was dropped; restart from this side. *)
        start img
      | Some _, Dropped -> ()
      | Some (base, steps, acc), Kept { id = aid; clause = c } ->
        let pos = Lit.of_var pivot in
        let neg = Lit.neg pos in
        let acc_has_pos = Clause.mem pos acc and acc_has_neg = Clause.mem neg acc in
        let c_has_pos = Clause.mem pos c and c_has_neg = Clause.mem neg c in
        if (acc_has_pos && c_has_neg) || (acc_has_neg && c_has_pos) then begin
          let resolvent =
            try Clause.resolve_on acc c ~pivot
            with Invalid_argument msg -> fail "chain %d: lifted replay failed: %s" id msg
          in
          state := Some (base, (pivot, aid) :: steps, resolvent)
        end
        else if not (acc_has_pos || acc_has_neg) then
          (* Pivot already gone from the running clause: step redundant. *)
          ()
        else
          (* The other side lost its pivot literal; it subsumes the
             original resolvent on its own, so restart from it. *)
          state := Some (aid, [], c))
    pivots;
  match !state with
  | None -> Dropped
  | Some (base, [], clause) -> Kept { id = base; clause }
  | Some (base, steps_rev, clause) ->
    let steps = List.rev steps_rev in
    let antecedents' = Array.of_list (base :: List.map snd steps) in
    let pivots' = Array.of_list (List.map fst steps) in
    (* Reuse the original node when the replay changed nothing. *)
    if antecedents' = antecedents && pivots' = pivots then
      Kept { id; clause = R.clause_of proof id }
    else
      let id' = R.add_chain proof ~clause ~antecedents:antecedents' ~pivots:pivots' in
      Kept { id = id'; clause }

let refutation proof ~root =
  if not (Clause.is_empty (R.clause_of proof root)) then
    fail "root %d is not an empty clause" root;
  let reg = Obs.ambient () in
  Obs.Counter.incr (Obs.Registry.counter reg "proof.lifts");
  let order = R.reachable proof ~root in
  Obs.Counter.add (Obs.Registry.counter reg "proof.lift_nodes") (Array.length order);
  let lifted : (R.id, image) Hashtbl.t = Hashtbl.create (Array.length order) in
  let depth : (R.id, int) Hashtbl.t = Hashtbl.create (Array.length order) in
  let max_depth = ref 0 in
  Array.iter
    (fun id ->
      let image =
        match R.node proof id with
        | R.Leaf { assumption = true; _ } -> Dropped
        | R.Leaf { clause; assumption = false } -> Kept { id; clause }
        | R.Chain { antecedents; pivots; _ } ->
          let d =
            1
            + Array.fold_left
                (fun acc a -> max acc (Option.value ~default:0 (Hashtbl.find_opt depth a)))
                0 antecedents
          in
          Hashtbl.replace depth id d;
          if d > !max_depth then max_depth := d;
          lift_chain proof lifted id antecedents pivots
      in
      Hashtbl.add lifted id image)
    order;
  Obs.Histogram.observe
    (Obs.Registry.histogram reg "proof.lift_depth")
    (float_of_int !max_depth);
  match Hashtbl.find lifted root with
  | Dropped -> fail "refutation consisted only of assumptions"
  | Kept { id; clause } -> (id, clause)
