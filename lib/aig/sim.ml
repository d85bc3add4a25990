type t = { g : Graph.t; words : int; table : int64 array (* node * words, row-major *) }

let create g ~words =
  if words <= 0 then invalid_arg "Sim.create: words must be positive";
  { g; words; table = Array.make (Graph.num_nodes g * words) 0L }

let graph sim = sim.g
let words sim = sim.words
let num_patterns sim = 64 * sim.words

let base sim node = node * sim.words

let randomize_inputs sim rng =
  for i = 0 to Graph.num_inputs sim.g - 1 do
    let b = base sim (1 + i) in
    for w = 0 to sim.words - 1 do
      sim.table.(b + w) <- Support.Rng.int64 rng
    done
  done

let set_input_word sim ~input ~word v =
  if input < 0 || input >= Graph.num_inputs sim.g then
    invalid_arg "Sim.set_input_word: input out of range";
  if word < 0 || word >= sim.words then invalid_arg "Sim.set_input_word: word out of range";
  sim.table.(base sim (1 + input) + word) <- v

let set_input_bit sim ~input ~bit b =
  if bit < 0 || bit >= num_patterns sim then invalid_arg "Sim.set_input_bit: bit out of range";
  let w = bit / 64 and off = bit mod 64 in
  let idx = base sim (1 + input) + w in
  let mask = Int64.shift_left 1L off in
  sim.table.(idx) <-
    (if b then Int64.logor sim.table.(idx) mask
     else Int64.logand sim.table.(idx) (Int64.lognot mask))

let run sim =
  let g = sim.g and table = sim.table and words = sim.words in
  Graph.iter_ands g (fun n ->
      let f0 = Graph.fanin0 g n and f1 = Graph.fanin1 g n in
      let b0 = base sim (Lit.var f0) and b1 = base sim (Lit.var f1) and bn = base sim n in
      let neg0 = Lit.is_neg f0 and neg1 = Lit.is_neg f1 in
      for w = 0 to words - 1 do
        let v0 = Array.unsafe_get table (b0 + w) in
        let v0 = if neg0 then Int64.lognot v0 else v0 in
        let v1 = Array.unsafe_get table (b1 + w) in
        let v1 = if neg1 then Int64.lognot v1 else v1 in
        Array.unsafe_set table (bn + w) (Int64.logand v0 v1)
      done)

let node_values sim node =
  Array.sub sim.table (base sim node) sim.words

let lit_word sim l w =
  let v = sim.table.(base sim (Lit.var l) + w) in
  if Lit.is_neg l then Int64.lognot v else v

let lit_values sim l = Array.init sim.words (fun w -> lit_word sim l w)

let lit_bit sim l ~bit =
  if bit < 0 || bit >= num_patterns sim then invalid_arg "Sim.lit_bit: bit out of range";
  let w = bit / 64 and off = bit mod 64 in
  Int64.logand (Int64.shift_right_logical (lit_word sim l w) off) 1L = 1L

(* Exhaustive stimulus: pattern index = input assignment.  For input i,
   bit p of its stimulus is bit i of p.  For i < 6 these are the
   classic truth-table constants; beyond, whole words alternate. *)
let truth_table g l =
  let n = Graph.num_inputs g in
  if n > 16 then invalid_arg "Sim.truth_table: more than 16 inputs";
  let patterns = max 1 (1 lsl n) in
  let words = max 1 (patterns / 64) in
  let sim = create g ~words in
  for i = 0 to n - 1 do
    for w = 0 to words - 1 do
      let v = ref 0L in
      for off = 0 to min 63 (patterns - 1) do
        let p = (w * 64) + off in
        if (p lsr i) land 1 = 1 then v := Int64.logor !v (Int64.shift_left 1L off)
      done;
      set_input_word sim ~input:i ~word:w !v
    done
  done;
  run sim;
  let result = lit_values sim l in
  (* Mask off unused pattern bits when fewer than 64 patterns exist. *)
  if patterns < 64 then begin
    let mask = Int64.sub (Int64.shift_left 1L patterns) 1L in
    result.(0) <- Int64.logand result.(0) mask
  end;
  result

let equal_functions g a b = truth_table g a = truth_table g b
