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

(* What one shard's forward pass leaves behind for the join.  Times are
   global node counts at the moment a record was processed, so "node
   [p] was dead when chain [q] used it" is exactly [delete-time <= q]
   regardless of which shards the two records sit in. *)
type shard_outcome = {
  mutable sr_chains : int;
  mutable sr_steps : int;
  mutable sr_deletes : int;
  mutable sr_peak : int;
  mutable foreign_uses : (int * int * int) list;  (** position, using chain, offset *)
  mutable foreign_deletes : (int * int * int) list;  (** position, time, offset *)
  mutable local_deletes : (int * int * int) list;  (** position, time, offset *)
  mutable failure : error option;
}

let fresh_outcome () =
  {
    sr_chains = 0;
    sr_steps = 0;
    sr_deletes = 0;
    sr_peak = 0;
    foreign_uses = [];
    foreign_deletes = [];
    local_deletes = [];
    failure = None;
  }

(* Forward pass over one shard, search-free: every resolution step
   follows its stored hint.  Local antecedents come from the live
   table exactly as in {!Stream_check}; cross-shard antecedents come
   from the header's export table (and are recorded for the join, so a
   use the exporting shard later invalidates still rejects).  The live
   set is the shard's local live clauses plus the imports currently
   held — for a valid certificate that is never more than the
   sequential checker's live set at the same instant. *)
let check_shard ?formula base shards exports idx =
  let out = fresh_outcome () in
  let sh = shards.(idx) in
  let n = Binfmt.declared_nodes base in
  let r = Binfmt.shard_reader base idx in
  let live = Hashtbl.create 64 in
  let imports = Hashtbl.create 8 in
  let held = ref 0 in
  let peak () =
    let p = Hashtbl.length live + !held in
    if p > out.sr_peak then out.sr_peak <- p
  in
  let own_exports = Hashtbl.create (max 1 (Array.length sh.Binfmt.exports)) in
  Array.iter (fun (p, c) -> Hashtbl.replace own_exports p c) sh.Binfmt.exports;
  let check_export at pos clause =
    match Hashtbl.find_opt own_exports pos with
    | Some c when not (Clause.equal c clause) ->
      reject ~chain:pos at "exported clause for node %d does not match its derivation" pos
    | Some _ | None -> ()
  in
  let run () =
    let continue = ref true in
    while !continue do
      let at0 = Binfmt.offset r in
      if at0 >= sh.Binfmt.byte_stop then begin
        if Binfmt.defined_nodes r <> sh.Binfmt.end_pos then
          corrupt at0 "shard %d declares %d nodes but defines %d" idx
            (sh.Binfmt.end_pos - sh.Binfmt.start_pos)
            (Binfmt.defined_nodes r - sh.Binfmt.start_pos);
        continue := false
      end
      else
        match Binfmt.next r with
        | None -> corrupt at0 "certificate ends inside shard %d" idx
        | Some record -> (
          let at = Binfmt.offset r in
          if at > sh.Binfmt.byte_stop then corrupt at0 "record crosses a shard boundary";
          if Binfmt.defined_nodes r > sh.Binfmt.end_pos then
            corrupt at "shard %d defines more nodes than declared" idx;
          match record with
          | Binfmt.Leaf { clause; assumption } ->
            let pos = Binfmt.defined_nodes r - 1 in
            if assumption then reject ~chain:pos at "assumption leaf in a final certificate";
            (match formula with
            | Some f when not (Cnf.Formula.mem f clause) ->
              reject ~chain:pos at "leaf clause %s is not in the formula"
                (Clause.to_dimacs_string clause)
            | Some _ | None -> ());
            check_export at pos clause;
            Hashtbl.add live pos clause;
            peak ()
          | Binfmt.Chain { antecedents; pivots } ->
            let pos = Binfmt.defined_nodes r - 1 in
            let chain = Some pos in
            let clause_of p =
              if p >= sh.Binfmt.start_pos then
                match Hashtbl.find_opt live p with
                | Some c -> c
                | None -> reject ?chain at "antecedent %d is dead (deleted before its last use)" p
              else begin
                out.foreign_uses <- (p, pos, at) :: out.foreign_uses;
                match Hashtbl.find_opt imports p with
                | Some c -> c
                | None -> (
                  match Hashtbl.find_opt exports p with
                  | Some c ->
                    Hashtbl.add imports p c;
                    incr held;
                    peak ();
                    c
                  | None -> reject ?chain at "cross-shard antecedent %d is not exported" p)
              end
            in
            let acc = ref (clause_of antecedents.(0)) in
            for i = 1 to Array.length antecedents - 1 do
              let pivot = pivots.(i - 1) in
              (match Clause.resolve_on !acc (clause_of antecedents.(i)) ~pivot with
              | resolvent -> acc := resolvent
              | exception Invalid_argument msg ->
                reject ?chain at "hinted resolution step %d on variable %d failed: %s" i pivot msg);
              out.sr_steps <- out.sr_steps + 1
            done;
            out.sr_chains <- out.sr_chains + 1;
            check_export at pos !acc;
            Hashtbl.add live pos !acc;
            peak ()
          | Binfmt.Delete ids ->
            out.sr_deletes <- out.sr_deletes + 1;
            let time = Binfmt.defined_nodes r in
            Array.iter
              (fun p ->
                if p = n - 1 then reject at "delete of the root";
                if p >= sh.Binfmt.start_pos then begin
                  if not (Hashtbl.mem live p) then reject at "double delete of node %d" p;
                  Hashtbl.remove live p;
                  out.local_deletes <- (p, time, at) :: out.local_deletes
                end
                else begin
                  out.foreign_deletes <- (p, time, at) :: out.foreign_deletes;
                  if Hashtbl.mem imports p then begin
                    Hashtbl.remove imports p;
                    decr held
                  end
                end)
              ids)
    done;
    if idx = Array.length shards - 1 then
      match Hashtbl.find_opt live (n - 1) with
      | Some c when Clause.is_empty c -> ()
      | Some c ->
        reject (Binfmt.offset r) "root clause %s is not empty" (Clause.to_dimacs_string c)
      | None -> reject (Binfmt.offset r) "root was deleted"
  in
  (match run () with
  | () -> ()
  | exception Reject { offset; reason; chain } ->
    out.failure <- Some { offset; reason; malformed = false; chain }
  | exception Binfmt.Corrupt { offset; reason } ->
    out.failure <- Some { offset; reason; malformed = true; chain = None });
  out

(* Join at the stitch points: fold every shard's delete reports into
   one position -> time map (a position deleted twice anywhere is a
   double delete) and replay the cross-shard uses against it — a use at
   chain [q] of a node deleted at time [<= q] is exactly what the
   sequential checker would have rejected as a dead antecedent. *)
let join outcomes =
  let candidates = ref [] in
  Array.iter
    (fun o -> match o.failure with Some e -> candidates := e :: !candidates | None -> ())
    outcomes;
  let deletes = Hashtbl.create 64 in
  let record_delete (p, t, off) =
    match Hashtbl.find_opt deletes p with
    | None -> Hashtbl.replace deletes p (t, off)
    | Some (t0, off0) ->
      (* The sequential pass trips on the later of the two records. *)
      let off_err = if t >= t0 then off else off0 in
      candidates :=
        {
          offset = off_err;
          reason = Printf.sprintf "double delete of node %d" p;
          malformed = false;
          chain = None;
        }
        :: !candidates;
      Hashtbl.replace deletes p (min t t0, min off off0)
  in
  Array.iter
    (fun o ->
      List.iter record_delete o.local_deletes;
      List.iter record_delete o.foreign_deletes)
    outcomes;
  Array.iter
    (fun o ->
      List.iter
        (fun (p, q, off) ->
          match Hashtbl.find_opt deletes p with
          | Some (td, _) when td <= q ->
            candidates :=
              {
                offset = off;
                reason =
                  Printf.sprintf "antecedent %d is dead (deleted before its last use)" p;
                malformed = false;
                chain = Some q;
              }
              :: !candidates
          | _ -> ())
        o.foreign_uses)
    outcomes;
  !candidates

(* The reported error is the candidate earliest in the byte stream —
   a deterministic function of the bytes alone, independent of worker
   scheduling (shard byte ranges are disjoint and ordered, so this is
   also the lowest-shard failure). *)
let error_key (e : error) =
  (e.offset, (match e.chain with None -> -1 | Some c -> c), e.reason, e.malformed)

let pick candidates =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some b -> if compare (error_key e) (error_key b) < 0 then Some e else acc)
    None candidates

let check ?formula ?(jobs = 1) data =
  let reg = Obs.ambient () in
  let fail e =
    Obs.Counter.incr (Obs.Registry.counter reg "check.rejects");
    Error e
  in
  match Binfmt.reader data with
  | exception Binfmt.Corrupt { offset; reason } ->
    fail { offset; reason; malformed = true; chain = None }
  | base ->
    if Binfmt.version_of base <> Binfmt.version_hinted then
      fail
        {
          offset = String.length Binfmt.magic;
          reason =
            Printf.sprintf "certificate carries no hints (CECB version %d); use Stream_check"
              (Binfmt.version_of base);
          malformed = false;
          chain = None;
        }
    else begin
      let shards = Binfmt.shards base in
      let s_count = Array.length shards in
      let exports = Hashtbl.create 64 in
      Array.iter
        (fun sh -> Array.iter (fun (p, c) -> Hashtbl.replace exports p c) sh.Binfmt.exports)
        shards;
      (* Shards are independent units of work pulled off an atomic
         cursor by [jobs] domains; every shard is always checked (no
         early abort), so the outcome — verdict, error choice and all
         aggregate counters — is identical for every [jobs], including
         on rejection. *)
      let outcomes = Array.make s_count (fresh_outcome ()) in
      let cursor = Atomic.make 0 in
      let workers = max 1 (min jobs s_count) in
      let work wreg () =
        Obs.with_ambient wreg (fun () ->
            let rec loop () =
              let i = Atomic.fetch_and_add cursor 1 in
              if i < s_count then begin
                outcomes.(i) <-
                  Obs.Span.with_ wreg "check.shard" (fun () ->
                      check_shard ?formula base shards exports i);
                loop ()
              end
            in
            loop ())
      in
      let regs = Array.init workers (fun _ -> Obs.Registry.create ()) in
      let spawned = Array.init (workers - 1) (fun k -> Domain.spawn (work regs.(k + 1))) in
      work regs.(0) ();
      Array.iter Domain.join spawned;
      Array.iter (fun r -> Obs.Registry.merge_into ~into:reg r) regs;
      match pick (join outcomes) with
      | Some e -> fail e
      | None ->
        let chains = ref 0 and steps = ref 0 and deletes = ref 0 and peak = ref 0 in
        Array.iter
          (fun o ->
            chains := !chains + o.sr_chains;
            steps := !steps + o.sr_steps;
            deletes := !deletes + o.sr_deletes;
            if o.sr_peak > !peak then peak := o.sr_peak)
          outcomes;
        let c name = Obs.Registry.counter reg name in
        Obs.Counter.incr (c "check.checks");
        Obs.Counter.add (c "check.chains") !chains;
        Obs.Counter.add (c "check.steps") !steps;
        (* Every step resolved on its stored hint — zero search; the
           equality [check.hints_followed = check.steps] is the no-search
           pin the tests rely on. *)
        Obs.Counter.add (c "check.hints_followed") !steps;
        Obs.Counter.add (c "check.shards") s_count;
        let peak_gauge = Obs.Registry.gauge reg "check.peak_live" in
        Obs.Gauge.set peak_gauge (Float.max (Obs.Gauge.get peak_gauge) (float_of_int !peak));
        Ok
          {
            nodes = Binfmt.declared_nodes base;
            chains = !chains;
            steps = !steps;
            hints_followed = !steps;
            deletes = !deletes;
            peak_live = !peak;
            shards = s_count;
          }
    end
