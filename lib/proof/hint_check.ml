module Clause = Cnf.Clause

type stats = {
  nodes : int;
  chains : int;
  steps : int;
  hints_followed : int;
  deletes : int;
  peak_live : int;
  shards : int;
}

type error = { offset : int; reason : string; malformed : bool; chain : int option }

let pp_error fmt (e : error) =
  (match e.chain with
  | Some c -> Format.fprintf fmt "chain %d, byte %d: %s" c e.offset e.reason
  | None -> Format.fprintf fmt "byte %d: %s" e.offset e.reason);
  if e.malformed then Format.fprintf fmt " (malformed certificate)"

exception Reject of { offset : int; reason : string; chain : int option }

let reject ?chain offset fmt =
  Printf.ksprintf (fun reason -> raise (Reject { offset; reason; chain })) fmt

let corrupt offset fmt =
  Printf.ksprintf (fun reason -> raise (Binfmt.Corrupt { offset; reason })) fmt

(* One forward pass over the records.  [live.(p)] holds node [p]'s
   clause exactly between its defining record and its delete record;
   the reader has bounded the declared node count by the data length,
   so the two position-indexed tables are bounded by the input.  The
   shard table is enforced as the pass crosses it: records fill each
   shard's byte span with exactly its declared node count, a declared
   export must equal the clause its node derives, and an antecedent
   from an earlier shard must be exported. *)
let run ~leaf_ok data =
  let r = Binfmt.reader data in
  let n = Binfmt.declared_nodes r in
  let shards = Binfmt.shards r in
  let s_count = Array.length shards in
  let exports = Array.make n None in
  Array.iter
    (fun sh -> Array.iter (fun (p, c) -> exports.(p) <- Some c) sh.Binfmt.exports)
    shards;
  let live = Array.make n None in
  let live_count = ref 0 and peak = ref 0 in
  let chains = ref 0 and steps = ref 0 and deletes = ref 0 in
  let cur = ref 0 in
  let define at pos clause =
    (match exports.(pos) with
    | Some c when not (Clause.equal c clause) ->
      reject ~chain:pos at "exported clause for node %d does not match its derivation" pos
    | Some _ | None -> ());
    live.(pos) <- Some clause;
    incr live_count;
    if !live_count > !peak then peak := !live_count
  in
  let continue = ref true in
  while !continue do
    let at0 = Binfmt.offset r in
    while !cur < s_count - 1 && at0 >= shards.(!cur).Binfmt.byte_stop do
      let sh = shards.(!cur) in
      if Binfmt.defined_nodes r <> sh.Binfmt.end_pos then
        corrupt at0 "shard %d declares %d nodes but defines %d" !cur
          (sh.Binfmt.end_pos - sh.Binfmt.start_pos)
          (Binfmt.defined_nodes r - sh.Binfmt.start_pos);
      incr cur
    done;
    match Binfmt.next r with
    | None -> continue := false
    | Some record -> (
      let sh = shards.(!cur) in
      let at = Binfmt.offset r in
      if at > sh.Binfmt.byte_stop then corrupt at0 "record crosses a shard boundary";
      if Binfmt.defined_nodes r > sh.Binfmt.end_pos then
        corrupt at "shard %d defines more nodes than declared" !cur;
      let pos = Binfmt.defined_nodes r - 1 in
      match record with
      | Binfmt.Leaf { clause; assumption } ->
        if assumption then reject ~chain:pos at "assumption leaf in a final certificate";
        (match leaf_ok with
        | Some ok when not (ok clause) ->
          reject ~chain:pos at "leaf clause %s is not in the formula"
            (Clause.to_dimacs_string clause)
        | Some _ | None -> ());
        define at pos clause
      | Binfmt.Chain { antecedents; pivots } -> (
        let clause_of p =
          if p < sh.Binfmt.start_pos && Option.is_none exports.(p) then
            reject ~chain:pos at "cross-shard antecedent %d is not exported" p;
          match live.(p) with
          | Some c -> c
          | None -> reject ~chain:pos at "antecedent %d is dead (deleted before its last use)" p
        in
        match Binfmt.resolve_chain clause_of ~antecedents ~pivots with
        | Error reason -> raise (Reject { offset = at; reason; chain = Some pos })
        | Ok (clause, _) ->
          incr chains;
          steps := !steps + Array.length antecedents - 1;
          define at pos clause)
      | Binfmt.Delete ids ->
        incr deletes;
        Array.iter
          (fun p ->
            if p = n - 1 then reject at "delete of the root";
            if Option.is_none live.(p) then reject at "double delete of node %d" p;
            live.(p) <- None;
            decr live_count)
          ids)
  done;
  (match live.(n - 1) with
  | Some c when Clause.is_empty c -> ()
  | Some c -> reject (Binfmt.offset r) "root clause %s is not empty" (Clause.to_dimacs_string c)
  | None -> reject (Binfmt.offset r) "root was deleted");
  {
    nodes = n;
    chains = !chains;
    steps = !steps;
    hints_followed = (if Binfmt.version_of r = Binfmt.version_hinted then !steps else 0);
    deletes = !deletes;
    peak_live = !peak;
    shards = s_count;
  }

let check ?leaf_ok ?formula data =
  let leaf_ok = Checker.leaf_test ?leaf_ok ?formula () in
  let reg = Obs.ambient () in
  let fail e =
    Obs.Counter.incr (Obs.Registry.counter reg "check.rejects");
    Error e
  in
  match run ~leaf_ok data with
  | exception Reject { offset; reason; chain } -> fail { offset; reason; malformed = false; chain }
  | exception Binfmt.Corrupt { offset; reason } ->
    fail { offset; reason; malformed = true; chain = None }
  | st ->
    let c name = Obs.Registry.counter reg name in
    Obs.Counter.incr (c "check.checks");
    Obs.Counter.add (c "check.chains") st.chains;
    Obs.Counter.add (c "check.steps") st.steps;
    Obs.Counter.add (c "check.hints_followed") st.hints_followed;
    Obs.Counter.add (c "check.shards") st.shards;
    let peak_gauge = Obs.Registry.gauge reg "check.peak_live" in
    Obs.Gauge.set peak_gauge (Float.max (Obs.Gauge.get peak_gauge) (float_of_int st.peak_live));
    Ok st
