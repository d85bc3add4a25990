exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Hand-rolled rather than [Printf.bprintf]: service keys digest this
   text for every request, and the bytes are the same. *)
let to_buffer buf g =
  let int n = Buffer.add_string buf (string_of_int n) in
  let sep c n =
    Buffer.add_char buf c;
    int n
  in
  let num_inputs = Graph.num_inputs g in
  let num_ands = Graph.num_ands g in
  Buffer.add_string buf "aag";
  sep ' ' (num_inputs + num_ands);
  sep ' ' num_inputs;
  Buffer.add_string buf " 0";
  sep ' ' (Graph.num_outputs g);
  sep ' ' num_ands;
  Buffer.add_char buf '\n';
  for i = 0 to num_inputs - 1 do
    int (Graph.input g i);
    Buffer.add_char buf '\n'
  done;
  Array.iter
    (fun l ->
      int l;
      Buffer.add_char buf '\n')
    (Graph.outputs g);
  Graph.iter_ands g (fun n ->
      (* The format wants rhs0 >= rhs1; the graph stores f0 <= f1. *)
      int (Lit.of_var n);
      sep ' ' (Graph.fanin1 g n);
      sep ' ' (Graph.fanin0 g n);
      Buffer.add_char buf '\n')

let to_string g =
  let buf = Buffer.create 4096 in
  to_buffer buf g;
  Buffer.contents buf

let write_channel oc g = output_string oc (to_string g)

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc g)

(* The one ASCII reader, latches included: the graph's inputs are the
   I primary inputs followed by the L latch outputs (current state),
   its outputs the O primary outputs followed by the L next-state
   functions.  Only reset-to-0 latches are accepted. *)
let of_ascii_with_latches text =
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun s -> String.trim s <> "") lines in
  let header, rest =
    match lines with
    | [] -> fail "empty file"
    | h :: rest -> (h, rest)
  in
  let ints_of_line line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some v -> v
           | None -> fail "not a number: %S" s)
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
    | _ -> fail "malformed header %S" header
  in
  if m < 0 || i < 0 || l < 0 || o < 0 || a < 0 then fail "negative count in header %S" header;
  if List.length rest < i + l + o + a then fail "truncated file";
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
  let input_lines, rest = take i rest in
  let latch_lines, rest = take l rest in
  let output_lines, rest = take o rest in
  let and_lines, _comments = take a rest in
  let g = Graph.create ~num_inputs:(i + l) in
  (* AIGER variable -> our literal, holding only the variables the
     input, latch and AND lines define: M may exceed I + L + A (ASCII
     AIGER allows gaps), so nothing is sized from it. *)
  let map = Hashtbl.create (i + l + a + 1) in
  Hashtbl.replace map 0 Lit.false_;
  let define kind v ours =
    if v < 1 || v > m then fail "%s variable %d out of range" kind v;
    if Hashtbl.mem map v then fail "variable %d defined twice" v;
    Hashtbl.replace map v ours
  in
  List.iteri
    (fun idx line ->
      match ints_of_line line with
      | [ lit ] ->
        if lit mod 2 <> 0 then fail "input literal %d is complemented" lit;
        define "input" (lit / 2) (Graph.input g idx)
      | _ -> fail "malformed input line %S" line)
    input_lines;
  let latch_next =
    List.mapi
      (fun idx line ->
        match ints_of_line line with
        | lit :: next :: init ->
          if lit mod 2 <> 0 then fail "latch literal %d is complemented" lit;
          if init <> [] && init <> [ 0 ] then fail "only reset-to-0 latches are supported";
          define "latch" (lit / 2) (Graph.input g (i + idx));
          next
        | _ -> fail "malformed latch line %S" line)
      latch_lines
  in
  let map_lit lit =
    if lit < 0 || lit / 2 > m then fail "literal %d out of range" lit;
    match Hashtbl.find_opt map (lit / 2) with
    | None -> fail "literal %d used before definition" lit
    | Some ours -> Lit.apply_sign ours ~neg:(lit mod 2 = 1)
  in
  List.iter
    (fun line ->
      match ints_of_line line with
      | [ lhs; rhs0; rhs1 ] ->
        if lhs mod 2 <> 0 then fail "AND lhs %d is complemented" lhs;
        define "AND" (lhs / 2) (Graph.and_ g (map_lit rhs0) (map_lit rhs1))
      | _ -> fail "malformed AND line %S" line)
    and_lines;
  List.iter
    (fun line ->
      match ints_of_line line with
      | [ lit ] -> Graph.add_output g (map_lit lit)
      | _ -> fail "malformed output line %S" line)
    output_lines;
  List.iter (fun next -> Graph.add_output g (map_lit next)) latch_next;
  (g, l)

let of_ascii_string text =
  match of_ascii_with_latches text with
  | g, 0 -> g
  | _ -> fail "latches are not supported (combinational only)"

(* --- binary AIGER --- *)

let to_binary_string g =
  let buf = Buffer.create 4096 in
  let num_inputs = Graph.num_inputs g in
  let num_ands = Graph.num_ands g in
  Printf.bprintf buf "aig %d %d 0 %d %d\n" (num_inputs + num_ands) num_inputs
    (Graph.num_outputs g) num_ands;
  Array.iter (fun l -> Printf.bprintf buf "%d\n" l) (Graph.outputs g);
  let push_varint x =
    let x = ref x in
    while !x >= 0x80 do
      Buffer.add_char buf (Char.chr ((!x land 0x7f) lor 0x80));
      x := !x lsr 7
    done;
    Buffer.add_char buf (Char.chr !x)
  in
  Graph.iter_ands g (fun n ->
      let f0 = Graph.fanin0 g n and f1 = Graph.fanin1 g n in
      (* f0 <= f1 in the graph; binary AIGER wants rhs0 >= rhs1. *)
      let lhs = Lit.of_var n in
      push_varint (lhs - f1);
      push_varint (f1 - f0));
  Buffer.contents buf

let max_binary_inputs = 1 lsl 20

let of_binary_string text =
  let len = String.length text in
  let pos = ref 0 in
  let read_line () =
    let start = !pos in
    while !pos < len && text.[!pos] <> '\n' do
      incr pos
    done;
    if !pos >= len then fail "truncated binary file";
    let line = String.sub text start (!pos - start) in
    incr pos;
    line
  in
  let header = read_line () in
  let m, i, l, o, a =
    match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
    | [ "aig"; m; i; l; o; a ] -> (
      match
        (int_of_string_opt m, int_of_string_opt i, int_of_string_opt l, int_of_string_opt o,
         int_of_string_opt a)
      with
      | Some m, Some i, Some l, Some o, Some a -> (m, i, l, o, a)
      | _ -> fail "malformed binary header %S" header)
    | _ -> fail "malformed binary header %S" header
  in
  if m < 0 || i < 0 || l < 0 || o < 0 || a < 0 then fail "negative count in header %S" header;
  if l <> 0 then fail "latches are not supported (combinational only)";
  if i > max_binary_inputs then
    fail "binary header declares %d inputs (the reader takes at most %d)" i max_binary_inputs;
  (* Every output line and every AND takes at least two bytes. *)
  let remaining = len - !pos in
  if o > remaining / 2 || a > (remaining - (2 * o)) / 2 then
    fail "binary header declares %d outputs and %d ANDs, more than the %d bytes after it hold" o
      a remaining;
  if m <> i + a then fail "binary AIGER requires M = I + A (got M=%d I=%d A=%d)" m i a;
  let output_lits =
    List.init o (fun _ ->
        match int_of_string_opt (String.trim (read_line ())) with
        | Some v -> v
        | None -> fail "malformed output line")
  in
  let read_varint () =
    let rec loop shift acc =
      if !pos >= len then fail "truncated binary AND section";
      let byte = Char.code text.[!pos] in
      incr pos;
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 <> 0 then loop (shift + 7) acc else acc
    in
    loop 0 0
  in
  let g = Graph.create ~num_inputs:i in
  (* Binary variable [v] is the constant for [v = 0], input [v - 1] up
     to [I], and the [v - I]th AND after that, whose literal is
     [ands.(v - I - 1)]. *)
  let ands = Array.make a Lit.false_ in
  let lit_of encoded =
    let v = encoded / 2 in
    if encoded < 0 || v > m then fail "literal %d out of range" encoded;
    let lit = if v = 0 then Lit.false_ else if v <= i then Graph.input g (v - 1) else ands.(v - i - 1) in
    Lit.apply_sign lit ~neg:(encoded mod 2 = 1)
  in
  for k = 0 to a - 1 do
    let lhs = 2 * (i + 1 + k) in
    let delta0 = read_varint () in
    let delta1 = read_varint () in
    let rhs0 = lhs - delta0 and rhs1 = lhs - delta0 - delta1 in
    if delta0 = 0 || rhs1 < 0 then fail "invalid deltas for AND %d" (i + 1 + k);
    ands.(k) <- Graph.and_ g (lit_of rhs0) (lit_of rhs1)
  done;
  List.iter (fun lit -> Graph.add_output g (lit_of lit)) output_lits;
  g

let of_string text =
  if String.length text >= 4 && String.sub text 0 4 = "aig " then of_binary_string text
  else of_ascii_string text

let read_channel ic = of_string (In_channel.input_all ic)
let read_file path = of_string (In_channel.with_open_bin path In_channel.input_all)
