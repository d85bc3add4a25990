exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type t = {
  comb : Graph.t;
  num_pis : int;
  num_latches : int;
  init : bool array;
}

let create ?init comb ~num_pis ~num_latches =
  if num_pis < 0 || num_latches < 0 then invalid_arg "Seq.create: negative counts";
  if Graph.num_inputs comb <> num_pis + num_latches then
    invalid_arg "Seq.create: transition structure input count mismatch";
  if Graph.num_outputs comb < num_latches then
    invalid_arg "Seq.create: transition structure needs a next-state output per latch";
  let init =
    match init with
    | None -> Array.make num_latches false
    | Some a ->
      if Array.length a <> num_latches then invalid_arg "Seq.create: init length mismatch";
      Array.copy a
  in
  { comb; num_pis; num_latches; init }

let num_pis t = t.num_pis
let num_latches t = t.num_latches
let num_pos t = Graph.num_outputs t.comb - t.num_latches
let transition t = t.comb

let unroll t ~frames =
  if frames < 1 then invalid_arg "Seq.unroll: need at least one frame";
  let pos = num_pos t in
  let g = Graph.create ~num_inputs:(frames * t.num_pis) in
  let state =
    ref (Array.map (fun b -> if b then Lit.true_ else Lit.false_) t.init)
  in
  for frame = 0 to frames - 1 do
    let frame_inputs =
      Array.init t.num_pis (fun i -> Graph.input g ((frame * t.num_pis) + i))
    in
    let outs = Graph.append g t.comb ~inputs:(Array.append frame_inputs !state) in
    for o = 0 to pos - 1 do
      Graph.add_output g outs.(o)
    done;
    state := Array.sub outs pos t.num_latches
  done;
  g

(* --- AIGER with latches (ASCII) --- *)

let of_aiger_string text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun s -> String.trim s <> "")
  in
  let header, rest =
    match lines with
    | [] -> fail "empty file"
    | h :: rest -> (h, rest)
  in
  let m, i, l, o, a =
    match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
    | [ "aag"; m; i; l; o; a ] -> (
      match
        (int_of_string_opt m, int_of_string_opt i, int_of_string_opt l, int_of_string_opt o,
         int_of_string_opt a)
      with
      | Some m, Some i, Some l, Some o, Some a -> (m, i, l, o, a)
      | _ -> fail "malformed header %S" header)
    | _ -> fail "malformed header %S (sequential reader needs aag)" header
  in
  if m < 0 || i < 0 || l < 0 || o < 0 || a < 0 then fail "negative count in header %S" header;
  let take n xs =
    let rec loop n xs acc =
      if n = 0 then (List.rev acc, xs)
      else
        match xs with
        | [] -> fail "truncated file"
        | x :: xs -> loop (n - 1) xs (x :: acc)
    in
    loop n xs []
  in
  let ints line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some v -> v
           | None -> fail "not a number %S" s)
  in
  let input_lines, rest = take i rest in
  let latch_lines, rest = take l rest in
  let output_lines, rest = take o rest in
  let and_lines, _ = take a rest in
  let g = Graph.create ~num_inputs:(i + l) in
  (* Only the variables the input, latch and AND lines define are
     mapped: M may exceed I + L + A, so nothing is sized from it. *)
  let map = Hashtbl.create (i + l + a + 1) in
  Hashtbl.replace map 0 Lit.false_;
  let define kind v ours =
    if v < 1 || v > m then fail "%s variable %d out of range" kind v;
    if Hashtbl.mem map v then fail "variable %d defined twice" v;
    Hashtbl.replace map v ours
  in
  List.iteri
    (fun idx line ->
      match ints line with
      | [ lit ] when lit mod 2 = 0 -> define "input" (lit / 2) (Graph.input g idx)
      | _ -> fail "malformed input line %S" line)
    input_lines;
  let latch_next = ref [] in
  List.iteri
    (fun idx line ->
      match ints line with
      | lit :: next :: init_rest ->
        if lit mod 2 <> 0 then fail "latch literal %d complemented" lit;
        (match init_rest with
        | [] | [ 0 ] -> ()
        | _ -> fail "only reset-to-0 latches are supported");
        define "latch" (lit / 2) (Graph.input g (i + idx));
        latch_next := next :: !latch_next
      | _ -> fail "malformed latch line %S" line)
    latch_lines;
  let map_lit lit =
    if lit < 0 || lit / 2 > m then fail "literal %d out of range" lit;
    match Hashtbl.find_opt map (lit / 2) with
    | None -> fail "literal %d used before definition" lit
    | Some ours -> Lit.apply_sign ours ~neg:(lit mod 2 = 1)
  in
  List.iter
    (fun line ->
      match ints line with
      | [ lhs; rhs0; rhs1 ] when lhs mod 2 = 0 ->
        define "AND" (lhs / 2) (Graph.and_ g (map_lit rhs0) (map_lit rhs1))
      | _ -> fail "malformed AND line %S" line)
    and_lines;
  List.iter
    (fun line ->
      match ints line with
      | [ lit ] -> Graph.add_output g (map_lit lit)
      | _ -> fail "malformed output line %S" line)
    output_lines;
  List.iter (fun next -> Graph.add_output g (map_lit next)) (List.rev !latch_next);
  create g ~num_pis:i ~num_latches:l

let to_aiger_string t =
  let g = t.comb in
  let pos = num_pos t in
  let buf = Buffer.create 4096 in
  let max_var = Graph.num_inputs g + Graph.num_ands g in
  Printf.bprintf buf "aag %d %d %d %d %d\n" max_var t.num_pis t.num_latches pos
    (Graph.num_ands g);
  for i = 0 to t.num_pis - 1 do
    Printf.bprintf buf "%d\n" (Graph.input g i)
  done;
  for j = 0 to t.num_latches - 1 do
    Printf.bprintf buf "%d %d\n" (Graph.input g (t.num_pis + j)) (Graph.output g (pos + j))
  done;
  for o = 0 to pos - 1 do
    Printf.bprintf buf "%d\n" (Graph.output g o)
  done;
  Graph.iter_ands g (fun n ->
      Printf.bprintf buf "%d %d %d\n" (Lit.of_var n) (Graph.fanin1 g n) (Graph.fanin0 g n));
  Buffer.contents buf

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_aiger_string (really_input_string ic (in_channel_length ic)))

let write_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_aiger_string t))
