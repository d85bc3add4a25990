module Clause = Cnf.Clause
module R = Resolution

type error = { node_id : R.id; reason : string }

let pp_error fmt e = Format.fprintf fmt "proof node %d: %s" e.node_id e.reason

let error node_id fmt = Printf.ksprintf (fun reason -> Error { node_id; reason }) fmt

let check_cone proof ~root ~leaf_ok ~allow_assumptions =
  let order = R.reachable proof ~root in
  let chains = ref 0 in
  let rec loop i =
    if i >= Array.length order then Ok !chains
    else
      let id = order.(i) in
      match R.node proof id with
      | R.Leaf { clause; assumption } ->
        if assumption && not allow_assumptions then
          error id "assumption leaf in a final proof"
        else begin
          match leaf_ok with
          | Some ok when (not assumption) && not (ok clause) ->
            error id "leaf clause %s is not in the formula" (Clause.to_dimacs_string clause)
          | Some _ | None -> loop (i + 1)
        end
      | R.Chain { clause; antecedents; pivots } -> (
        match R.recompute_chain proof ~antecedents ~pivots with
        | derived ->
          if Clause.equal derived clause then begin
            incr chains;
            loop (i + 1)
          end
          else
            error id "chain derives %s but claims %s" (Clause.to_dimacs_string derived)
              (Clause.to_dimacs_string clause)
        | exception Invalid_argument msg -> error id "invalid resolution step: %s" msg)
  in
  loop 0

(* [formula] is [leaf_ok] spelled as a clause set; given both, a leaf
   must pass both. *)
let leaf_test ?leaf_ok ?formula () =
  match (leaf_ok, formula) with
  | ok, None -> ok
  | None, Some f -> Some (Cnf.Formula.mem f)
  | Some ok, Some f -> Some (fun c -> ok c && Cnf.Formula.mem f c)

let check proof ~root ?leaf_ok ?formula () =
  if not (Clause.is_empty (R.clause_of proof root)) then
    error root "root clause is not empty"
  else
    check_cone proof ~root ~leaf_ok:(leaf_test ?leaf_ok ?formula ()) ~allow_assumptions:false

let check_derivation proof ~root ~expected ?leaf_ok () =
  let derived = R.clause_of proof root in
  if not (Clause.subsumes derived expected) then
    error root "derived clause %s does not subsume expected %s"
      (Clause.to_dimacs_string derived) (Clause.to_dimacs_string expected)
  else check_cone proof ~root ~leaf_ok ~allow_assumptions:false
