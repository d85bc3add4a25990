module Clause = Cnf.Clause

type stats = {
  nodes : int;
  chains : int;
  deletes : int;
  peak_live : int;
  live_at_end : int;
}

type error = { offset : int; reason : string; malformed : bool; chain : int option }

let pp_error fmt e =
  (match e.chain with
  | Some c -> Format.fprintf fmt "chain %d, byte %d: %s" c e.offset e.reason
  | None -> Format.fprintf fmt "byte %d: %s" e.offset e.reason);
  if e.malformed then Format.fprintf fmt " (malformed certificate)"

exception Reject of { offset : int; reason : string; chain : int option }

let reject ?chain offset fmt =
  Printf.ksprintf (fun reason -> raise (Reject { offset; reason; chain })) fmt

let corrupt offset fmt =
  Printf.ksprintf (fun reason -> raise (Binfmt.Corrupt { offset; reason })) fmt

let check ?formula data =
  let reg = Obs.ambient () in
  let run () =
    let r = Binfmt.reader data in
    let n = Binfmt.declared_nodes r in
    let shards = Binfmt.shards r in
    let s_count = Array.length shards in
    (* Declared export clauses by position, across all shards: each is
       cross-checked against the derivation at its defining record, and
       every cross-shard antecedent must appear here — the sequential
       pass enforces exactly the discipline the sharded checker
       ({!Hint_check}) relies on, so the two accept the same sets. *)
    let declared_exports = Hashtbl.create 16 in
    Array.iter
      (fun sh ->
        Array.iter (fun (p, c) -> Hashtbl.replace declared_exports p c) sh.Binfmt.exports)
      shards;
    (* The whole working set: position -> clause, for exactly the
       clauses between their defining record and their delete record.
       Memory is proportional to the peak live count, not to [n] — a
       well-trimmed certificate checks in a small fraction of its
       materialized size. *)
    let live = Hashtbl.create 256 in
    let peak = ref 0 and chains = ref 0 and deletes = ref 0 in
    let cur = ref 0 in
    let check_export at p clause =
      match Hashtbl.find_opt declared_exports p with
      | Some c when not (Clause.equal c clause) ->
        reject ~chain:p at "exported clause for node %d does not match its derivation" p
      | Some _ | None -> ()
    in
    let add_live at pos clause =
      check_export at pos clause;
      Hashtbl.add live pos clause;
      if Hashtbl.length live > !peak then peak := Hashtbl.length live
    in
    let clause_of ~chain at pos =
      match Hashtbl.find_opt live pos with
      | Some c -> c
      | None -> reject ?chain at "antecedent %d is dead (deleted before its last use)" pos
    in
    let rec loop () =
      (* Shard-boundary discipline: records must fill each shard's byte
         span with exactly its declared node count, never straddling a
         boundary. *)
      let at0 = Binfmt.offset r in
      while !cur < s_count - 1 && at0 >= shards.(!cur).Binfmt.byte_stop do
        if Binfmt.defined_nodes r <> shards.(!cur).Binfmt.end_pos then
          corrupt at0 "shard %d declares %d nodes but defines %d" !cur
            (shards.(!cur).Binfmt.end_pos - shards.(!cur).Binfmt.start_pos)
            (Binfmt.defined_nodes r - shards.(!cur).Binfmt.start_pos);
        incr cur
      done;
      match Binfmt.next r with
      | None -> ()
      | Some record ->
        let at = Binfmt.offset r in
        if at > shards.(!cur).Binfmt.byte_stop then corrupt at0 "record crosses a shard boundary";
        (match record with
        | Binfmt.Leaf { clause; assumption } ->
          let pos = Binfmt.defined_nodes r - 1 in
          if assumption then reject ~chain:pos at "assumption leaf in a final certificate";
          (match formula with
          | Some f when not (Cnf.Formula.mem f clause) ->
            reject ~chain:pos at "leaf clause %s is not in the formula"
              (Clause.to_dimacs_string clause)
          | Some _ | None -> ());
          add_live at pos clause
        | Binfmt.Chain { antecedents; pivots } ->
          let pos = Binfmt.defined_nodes r - 1 in
          let chain = Some pos in
          let foreign p =
            if p < shards.(!cur).Binfmt.start_pos && not (Hashtbl.mem declared_exports p) then
              reject ?chain at "cross-shard antecedent %d is not exported" p
          in
          foreign antecedents.(0);
          let acc = ref (clause_of ~chain at antecedents.(0)) in
          for i = 1 to Array.length antecedents - 1 do
            foreign antecedents.(i);
            match Clause.resolve_clash !acc (clause_of ~chain at antecedents.(i)) with
            | None -> reject ?chain at "no clashing variable in resolution step"
            | Some (resolvent, pivot) ->
              (* Hinted chains also search here, then cross-check: the
                 hint must name exactly the variable resolution finds. *)
              if Array.length pivots > 0 && pivots.(i - 1) <> pivot then
                reject ?chain at "step %d resolves on variable %d but the hint says %d" i pivot
                  pivots.(i - 1);
              acc := resolvent
            | exception Invalid_argument msg -> reject ?chain at "invalid resolution step: %s" msg
          done;
          incr chains;
          add_live at pos !acc
        | Binfmt.Delete ids ->
          incr deletes;
          Array.iter
            (fun pos ->
              if pos = n - 1 then reject at "delete of the root";
              if not (Hashtbl.mem live pos) then reject at "double delete of node %d" pos;
              Hashtbl.remove live pos)
            ids);
        loop ()
    in
    loop ();
    (match Hashtbl.find_opt live (n - 1) with
    | Some c when Clause.is_empty c -> ()
    | Some c ->
      reject (Binfmt.offset r) "root clause %s is not empty" (Clause.to_dimacs_string c)
    | None -> reject (Binfmt.offset r) "root was deleted");
    Obs.Counter.incr (Obs.Registry.counter reg "proof.stream.checks");
    Obs.Counter.add (Obs.Registry.counter reg "proof.stream.chains") !chains;
    let peak_gauge = Obs.Registry.gauge reg "proof.stream.peak_live" in
    Obs.Gauge.set peak_gauge (Float.max (Obs.Gauge.get peak_gauge) (float_of_int !peak));
    Ok
      {
        nodes = n;
        chains = !chains;
        deletes = !deletes;
        peak_live = !peak;
        live_at_end = Hashtbl.length live;
      }
  in
  match run () with
  | result -> result
  | exception Reject { offset; reason; chain } ->
    Obs.Counter.incr (Obs.Registry.counter reg "proof.stream.rejects");
    Error { offset; reason; malformed = false; chain }
  | exception Binfmt.Corrupt { offset; reason } ->
    Obs.Counter.incr (Obs.Registry.counter reg "proof.stream.rejects");
    Error { offset; reason; malformed = true; chain = None }
