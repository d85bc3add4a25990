module Clause = Cnf.Clause
module Lit = Aig.Lit
module R = Resolution

(* Decimal [n] straight into [buf]. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end
  else add_digits buf n

let add_lits buf c =
  for i = 0 to Clause.size c - 1 do
    Buffer.add_char buf ' ';
    add_int buf (Lit.to_dimacs (c :> int array).(i))
  done;
  Buffer.add_string buf " 0"

let trace_to_string proof ~root =
  let buf = Buffer.create 4096 in
  let order = R.reachable proof ~root in
  (* Renumber densely (1-based) so the trace stands alone; every id in
     [order] is at most [root]. *)
  let rename = Array.make (root + 1) 0 in
  Array.iteri (fun i id -> rename.(id) <- i + 1) order;
  Array.iter
    (fun id ->
      add_int buf rename.(id);
      (match R.node proof id with
      | R.Leaf { clause; assumption } ->
        Buffer.add_string buf (if assumption then " A" else " L");
        add_lits buf clause
      | R.Chain { clause; antecedents; pivots } ->
        Buffer.add_string buf " C ";
        add_int buf rename.(antecedents.(0));
        for k = 0 to Array.length pivots - 1 do
          Buffer.add_char buf ' ';
          add_int buf (pivots.(k) + 1);
          Buffer.add_char buf ' ';
          add_int buf rename.(antecedents.(k + 1))
        done;
        Buffer.add_string buf " 0";
        add_lits buf clause);
      Buffer.add_char buf '\n')
    order;
  Buffer.contents buf

let drup_to_string proof ~root =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun id ->
      match R.node proof id with
      | R.Leaf _ -> ()
      | R.Chain { clause; _ } ->
        Clause.iter (fun l -> Printf.bprintf buf "%d " (Lit.to_dimacs l)) clause;
        Buffer.add_string buf "0\n")
    (R.reachable proof ~root);
  Buffer.contents buf

let trace_of_string text =
  let proof = R.create () in
  let rename = Hashtbl.create 64 in
  let last = ref None in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      (* [String.trim] drops the '\r' of CRLF traces. *)
      let toks = String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "") in
      match toks with
      | [] -> ()
      | id_s :: kind :: rest ->
        let int_of s =
          match int_of_string_opt s with
          | Some v -> v
          | None -> failwith (Printf.sprintf "Export.trace_of_string: not a number %S" s)
        in
        let id = int_of id_s in
        let lits_of toks =
          let rec loop acc = function
            | [] -> failwith "Export.trace_of_string: missing terminator"
            | "0" :: rest -> (List.rev acc, rest)
            | t :: rest -> loop (Lit.of_dimacs (int_of t) :: acc) rest
          in
          loop [] toks
        in
        let new_id =
          match kind with
          | "L" | "A" ->
            let lits, rest = lits_of rest in
            if rest <> [] then failwith "Export.trace_of_string: trailing tokens";
            R.add_leaf ~assumption:(kind = "A") proof (Clause.of_list lits)
          | "C" ->
            let rec chain acc_ants acc_pivots = function
              | "0" :: rest -> (List.rev acc_ants, List.rev acc_pivots, rest)
              | a :: rest when acc_ants = [] -> chain [ int_of a ] acc_pivots rest
              | p :: a :: rest -> chain (int_of a :: acc_ants) ((int_of p - 1) :: acc_pivots) rest
              | _ -> failwith "Export.trace_of_string: malformed chain"
            in
            let ants, pivots, rest = chain [] [] rest in
            let lits, rest = lits_of rest in
            if rest <> [] then failwith "Export.trace_of_string: trailing tokens";
            let antecedents =
              Array.of_list
                (List.map
                   (fun a ->
                     match Hashtbl.find_opt rename a with
                     | Some i -> i
                     | None -> failwith "Export.trace_of_string: forward reference")
                   ants)
            in
            R.add_chain proof ~clause:(Clause.of_list lits) ~antecedents
              ~pivots:(Array.of_list pivots)
          | k -> failwith (Printf.sprintf "Export.trace_of_string: unknown kind %S" k)
        in
        (* [Hashtbl.replace] here would let a duplicate id silently
           shadow the earlier node and corrupt every later reference. *)
        if Hashtbl.mem rename id then
          failwith (Printf.sprintf "Export.trace_of_string: duplicate node id %d" id);
        Hashtbl.add rename id new_id;
        last := Some new_id
      | _ -> failwith "Export.trace_of_string: malformed line")
    lines;
  match !last with
  | Some root -> (proof, root)
  | None -> failwith "Export.trace_of_string: empty trace"

let dot_to_string proof ~root =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph proof {\n  rankdir=BT;\n";
  let escape c = String.concat "\\n" (String.split_on_char ' ' (Clause.to_dimacs_string c)) in
  Array.iter
    (fun id ->
      match R.node proof id with
      | R.Leaf { clause; assumption } ->
        Printf.bprintf buf "  n%d [shape=box%s, label=\"%s\"];\n" id
          (if assumption then ", style=dashed" else "")
          (escape clause)
      | R.Chain { clause; antecedents; pivots } ->
        Printf.bprintf buf "  n%d [shape=ellipse, label=\"%s\"];\n" id (escape clause);
        Array.iteri
          (fun k a ->
            if k = 0 then Printf.bprintf buf "  n%d -> n%d;\n" a id
            else Printf.bprintf buf "  n%d -> n%d [label=\"%d\"];\n" a id (pivots.(k - 1) + 1))
          antecedents)
    (R.reachable proof ~root);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
