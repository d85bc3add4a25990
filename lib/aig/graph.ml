module Veci = Support.Veci

type t = {
  num_inputs : int;
  fan0 : Veci.t; (* indexed by AND slot: node id - first_and *)
  fan1 : Veci.t;
  strash : (int * int, int) Hashtbl.t; (* (f0, f1) normalized -> node id *)
  outs : Veci.t;
}

let first_and g = 1 + g.num_inputs

let create ~num_inputs =
  if num_inputs < 0 then invalid_arg "Graph.create: negative input count";
  {
    num_inputs;
    fan0 = Veci.create ();
    fan1 = Veci.create ();
    strash = Hashtbl.create 1024;
    outs = Veci.create ();
  }

let num_inputs g = g.num_inputs
let num_ands g = Veci.size g.fan0
let num_nodes g = first_and g + num_ands g
let num_outputs g = Veci.size g.outs

let input g i =
  if i < 0 || i >= g.num_inputs then invalid_arg "Graph.input: out of range";
  Lit.of_var (1 + i)

let is_const_node _ n = n = 0
let is_input_node g n = n >= 1 && n <= g.num_inputs
let is_and_node g n = n >= first_and g && n < num_nodes g

let fanin0 g n =
  if not (is_and_node g n) then invalid_arg "Graph.fanin0: not an AND node";
  Veci.get g.fan0 (n - first_and g)

let fanin1 g n =
  if not (is_and_node g n) then invalid_arg "Graph.fanin1: not an AND node";
  Veci.get g.fan1 (n - first_and g)

(* One-level simplification and structural hashing.  Fanins are
   normalized so that [f0 <= f1]; this is the canonical key. *)
let and_ g a b =
  let check_lit l =
    if Lit.var l >= num_nodes g then invalid_arg "Graph.and_: literal out of range"
  in
  check_lit a;
  check_lit b;
  let f0, f1 = if a <= b then (a, b) else (b, a) in
  if f0 = Lit.false_ then Lit.false_
  else if f0 = Lit.true_ then f1
  else if f0 = f1 then f0
  else if f0 = Lit.neg f1 then Lit.false_
  else
    match Hashtbl.find_opt g.strash (f0, f1) with
    | Some n -> Lit.of_var n
    | None ->
      let n = num_nodes g in
      Veci.push g.fan0 f0;
      Veci.push g.fan1 f1;
      Hashtbl.add g.strash (f0, f1) n;
      Lit.of_var n

let or_ g a b = Lit.neg (and_ g (Lit.neg a) (Lit.neg b))
let implies g a b = Lit.neg (and_ g a (Lit.neg b))

let xor_ g a b =
  (* (a AND not b) OR (not a AND b) *)
  or_ g (and_ g a (Lit.neg b)) (and_ g (Lit.neg a) b)

let xnor_ g a b = Lit.neg (xor_ g a b)

let mux g ~sel ~t ~e = or_ g (and_ g sel t) (and_ g (Lit.neg sel) e)

(* Balanced reduction keeps depth logarithmic, which matters for the
   simulation and SAT behaviour of generated benchmark circuits. *)
let rec reduce_balanced g op = function
  | [] -> invalid_arg "Graph.reduce_balanced: empty list"
  | [ l ] -> l
  | lits ->
    let rec pair = function
      | [] -> []
      | [ l ] -> [ l ]
      | a :: b :: rest -> op g a b :: pair rest
    in
    reduce_balanced g op (pair lits)

let and_list g = function
  | [] -> Lit.true_
  | lits -> reduce_balanced g and_ lits

let or_list g = function
  | [] -> Lit.false_
  | lits -> reduce_balanced g or_ lits

let add_output g l =
  if Lit.var l >= num_nodes g then invalid_arg "Graph.add_output: literal out of range";
  Veci.push g.outs l

let output g i =
  if i < 0 || i >= num_outputs g then invalid_arg "Graph.output: out of range";
  Veci.get g.outs i

let outputs g = Veci.to_array g.outs

let set_output g i l =
  if i < 0 || i >= num_outputs g then invalid_arg "Graph.set_output: out of range";
  if Lit.var l >= num_nodes g then invalid_arg "Graph.set_output: literal out of range";
  Veci.set g.outs i l

let iter_ands g f =
  for n = first_and g to num_nodes g - 1 do
    f n
  done

let levels g =
  let level = Array.make (num_nodes g) 0 in
  iter_ands g (fun n ->
      let l0 = level.(Lit.var (fanin0 g n)) and l1 = level.(Lit.var (fanin1 g n)) in
      level.(n) <- 1 + max l0 l1);
  level

let depth g =
  let level = levels g in
  Array.fold_left (fun acc l -> max acc level.(Lit.var l)) 0 (outputs g)

let append dst src ~inputs =
  if Array.length inputs <> src.num_inputs then
    invalid_arg "Graph.append: input map has wrong length";
  let map = Array.make (num_nodes src) Lit.false_ in
  (* map.(n) is the dst literal for src's positive literal of node n *)
  map.(0) <- Lit.false_;
  for i = 0 to src.num_inputs - 1 do
    map.(1 + i) <- inputs.(i)
  done;
  let map_lit l = Lit.apply_sign map.(Lit.var l) ~neg:(Lit.is_neg l) in
  iter_ands src (fun n -> map.(n) <- and_ dst (map_lit (fanin0 src n)) (map_lit (fanin1 src n)));
  Array.map map_lit (outputs src)

let extract_cone g lits =
  let fresh = create ~num_inputs:g.num_inputs in
  let map = Array.make (num_nodes g) Lit.false_ in
  let visited = Array.make (num_nodes g) false in
  visited.(0) <- true;
  for i = 0 to g.num_inputs - 1 do
    visited.(1 + i) <- true;
    map.(1 + i) <- input fresh i
  done;
  let map_lit l = Lit.apply_sign map.(Lit.var l) ~neg:(Lit.is_neg l) in
  let rec visit n =
    if not visited.(n) then begin
      visited.(n) <- true;
      let f0 = fanin0 g n and f1 = fanin1 g n in
      visit (Lit.var f0);
      visit (Lit.var f1);
      map.(n) <- and_ fresh (map_lit f0) (map_lit f1)
    end
  in
  List.iter
    (fun l ->
      visit (Lit.var l);
      add_output fresh (map_lit l))
    lits;
  fresh

let cleanup g = extract_cone g (Array.to_list (outputs g))

let eval g assignment =
  if Array.length assignment <> g.num_inputs then
    invalid_arg "Graph.eval: assignment has wrong length";
  let value = Array.make (num_nodes g) false in
  for i = 0 to g.num_inputs - 1 do
    value.(1 + i) <- assignment.(i)
  done;
  let lit_value l = value.(Lit.var l) <> Lit.is_neg l in
  iter_ands g (fun n -> value.(n) <- lit_value (fanin0 g n) && lit_value (fanin1 g n));
  Array.map lit_value (outputs g)

let eval_lit g assignment l =
  let cone = extract_cone g [ l ] in
  (eval cone assignment).(0)

let check g =
  iter_ands g (fun n ->
      let f0 = fanin0 g n and f1 = fanin1 g n in
      if Lit.var f0 >= n || Lit.var f1 >= n then
        failwith (Printf.sprintf "Graph.check: node %d has non-topological fanin" n);
      if f0 > f1 then failwith (Printf.sprintf "Graph.check: node %d fanins not normalized" n);
      match Hashtbl.find_opt g.strash (f0, f1) with
      | Some m when m = n -> ()
      | _ -> failwith (Printf.sprintf "Graph.check: node %d missing from strash table" n));
  Array.iter
    (fun l ->
      if Lit.var l >= num_nodes g then failwith "Graph.check: dangling output literal")
    (outputs g)

let pp_stats fmt g =
  Format.fprintf fmt "inputs=%d ands=%d outputs=%d depth=%d" (num_inputs g) (num_ands g)
    (num_outputs g) (depth g)
