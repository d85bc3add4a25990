exception Parse_error = Aiger.Parse_error

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
  let comb, num_latches = Aiger.of_ascii_with_latches text in
  create comb ~num_pis:(Graph.num_inputs comb - num_latches) ~num_latches

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
