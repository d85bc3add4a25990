module Clause = Cnf.Clause
module R = Resolution

let magic = "CECB"
let version = 1
let version_hinted = 2

exception Corrupt of { offset : int; reason : string }

let corrupt offset fmt = Printf.ksprintf (fun reason -> raise (Corrupt { offset; reason })) fmt

type record =
  | Leaf of { clause : Clause.t; assumption : bool }
  | Chain of { antecedents : int array; pivots : int array }
  | Delete of int array

type shard = {
  start_pos : int;
  end_pos : int;
  byte_start : int;
  byte_stop : int;
  exports : (int * Clause.t) array;
}

(* --- varints --- *)

(* Unsigned LEB128: 7 value bits per byte, high bit set on all but the
   last.  Every quantity in the format is non-negative by construction
   (internal literals are [2*var + sign], references are positive
   backward deltas), so no zigzag encoding is needed. *)
let put_varint buf v =
  assert (v >= 0);
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* Sorted strictly-increasing int lists (clause literals, delete sets)
   are stored as a first absolute value followed by positive gaps. *)
let put_deltas buf arr =
  put_varint buf (Array.length arr);
  Array.iteri (fun i v -> put_varint buf (if i = 0 then v else v - arr.(i - 1))) arr

(* --- encoding --- *)

(* Position of the last record referencing each node of [order]
   (indexed by position).  The root is pinned to the final position so
   it is never scheduled for deletion. *)
let last_uses proof order pos_of =
  let n = Array.length order in
  let last = Array.make n (-1) in
  Array.iteri
    (fun pos id ->
      match R.node proof id with
      | R.Leaf _ -> ()
      | R.Chain { antecedents; _ } ->
        Array.iter (fun a -> last.(Hashtbl.find pos_of a) <- pos) antecedents)
    order;
  last.(n - 1) <- n - 1;
  last

(* Shared emission plan: the just-in-time node order (a leaf enters the
   stream immediately before its first consumer instead of up front, so
   a streaming checker's live set never holds formula clauses it has no
   use for yet; chains keep their topological order), the delete
   schedule, and — for the hinted format — the shard end positions
   derived from the caller's proof-id boundaries.  Both encoders share
   this plan, so v1 and v3 certificates of the same proof have the same
   node order, the same delete records and therefore the same peak live
   set. *)
let emission_plan ?(boundaries = [||]) ?(min_shard_nodes = 1) proof ~root =
  let cone = R.reachable proof ~root in
  let bnds = List.sort_uniq compare (Array.to_list boundaries) |> Array.of_list in
  let nb = Array.length bnds in
  let bi = ref 0 in
  let raw_ends = ref [] in
  let emitted = Hashtbl.create (Array.length cone) in
  let order = Array.make (Array.length cone) (-1) in
  let count = ref 0 in
  let emit id =
    if not (Hashtbl.mem emitted id) then begin
      Hashtbl.add emitted id !count;
      order.(!count) <- id;
      incr count
    end
  in
  Array.iter
    (fun id ->
      (match R.node proof id with
      | R.Leaf _ -> ()
      | R.Chain { antecedents; _ } ->
        Array.iter emit antecedents;
        emit id);
      (* A boundary names the last proof id of a section: close the
         shard once every cone node up to it has been emitted. *)
      while !bi < nb && bnds.(!bi) <= id do
        raw_ends := !count :: !raw_ends;
        incr bi
      done)
    cone;
  emit root (* a leaf-only proof has no chain to pull the root in *);
  let n = !count in
  (* Coalesce: drop empty shards and shards below [min_shard_nodes]
     (tiny shards cost export-table bytes for no parallelism); the
     final shard — the stitch section — always ends at [n]. *)
  let ends =
    let kept = ref [] and prev = ref 0 in
    List.iter
      (fun e ->
        if e < n && e - !prev >= min_shard_nodes then begin
          kept := e :: !kept;
          prev := e
        end)
      (List.rev !raw_ends);
    Array.of_list (List.rev (n :: !kept))
  in
  let last = last_uses proof order emitted in
  let deletable = Array.make n [] in
  for pos = n - 2 downto 0 do
    let u = last.(pos) in
    if u >= 0 then deletable.(u) <- pos :: deletable.(u)
  done;
  (order, emitted, n, deletable, ends)

(* Append the record(s) for position [pos] — the node and, right after
   it, any delete record that becomes possible there.  Identical byte
   layout in both versions except that hinted chains carry their pivot
   variables after the antecedent references. *)
let put_record buf proof emitted ~hinted pos id deletable deletes =
  (match R.node proof id with
  | R.Leaf { clause; assumption } ->
    Buffer.add_char buf (if assumption then '\001' else '\000');
    put_deltas buf (Clause.lits clause)
  | R.Chain { antecedents; pivots; _ } ->
    Buffer.add_char buf '\002';
    put_varint buf (Array.length antecedents);
    Array.iter (fun a -> put_varint buf (pos - Hashtbl.find emitted a)) antecedents;
    if hinted then Array.iter (put_varint buf) pivots);
  match deletable.(pos) with
  | [] -> ()
  | dead ->
    incr deletes;
    Buffer.add_char buf '\003';
    put_deltas buf (Array.of_list dead)

let record_size_obs reg n deletes bytes =
  Obs.Counter.add (Obs.Registry.counter reg "proof.bin.nodes") n;
  Obs.Counter.add (Obs.Registry.counter reg "proof.bin.delete_records") deletes;
  Obs.Gauge.add (Obs.Registry.gauge reg "proof.bin.bytes") (float_of_int bytes)

let encode proof ~root =
  let order, emitted, n, deletable, _ends = emission_plan proof ~root in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_varint buf n;
  let deletes = ref 0 in
  Array.iteri (fun pos id -> put_record buf proof emitted ~hinted:false pos id deletable deletes) order;
  record_size_obs (Obs.ambient ()) n !deletes (Buffer.length buf);
  Buffer.contents buf

let encode_hinted ?boundaries ?(min_shard_nodes = 256) proof ~root =
  let order, emitted, n, deletable, ends =
    emission_plan ?boundaries ~min_shard_nodes proof ~root
  in
  let s_count = Array.length ends in
  let shard_of = Array.make n 0 in
  let s = ref 0 in
  for pos = 0 to n - 1 do
    while pos >= ends.(!s) do
      incr s
    done;
    shard_of.(pos) <- !s
  done;
  (* A node referenced from a later shard must be exported: its
     position and result clause go in the header so that shard's
     checker can start without replaying earlier shards. *)
  let exported = Array.make n false in
  Array.iteri
    (fun q id ->
      match R.node proof id with
      | R.Leaf _ -> ()
      | R.Chain { antecedents; _ } ->
        Array.iter
          (fun a ->
            let p = Hashtbl.find emitted a in
            if shard_of.(p) < shard_of.(q) then exported.(p) <- true)
          antecedents)
    order;
  let exports = Array.make s_count [] in
  for p = n - 1 downto 0 do
    if exported.(p) then exports.(shard_of.(p)) <- p :: exports.(shard_of.(p))
  done;
  let bodies = Array.init s_count (fun _ -> Buffer.create 1024) in
  let deletes = ref 0 in
  Array.iteri
    (fun pos id ->
      put_record bodies.(shard_of.(pos)) proof emitted ~hinted:true pos id deletable deletes)
    order;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version_hinted);
  put_varint buf n;
  put_varint buf s_count;
  let prev_end = ref 0 in
  let export_count = ref 0 in
  Array.iteri
    (fun s e ->
      put_varint buf (e - !prev_end);
      prev_end := e;
      put_varint buf (Buffer.length bodies.(s));
      put_varint buf (List.length exports.(s));
      let prev_pos = ref 0 in
      List.iteri
        (fun i p ->
          incr export_count;
          put_varint buf (if i = 0 then p else p - !prev_pos);
          prev_pos := p;
          put_deltas buf (Clause.lits (R.clause_of proof order.(p))))
        exports.(s))
    ends;
  Array.iter (Buffer.add_buffer buf) bodies;
  let reg = Obs.ambient () in
  record_size_obs reg n !deletes (Buffer.length buf);
  Obs.Counter.add (Obs.Registry.counter reg "proof.bin.shards") s_count;
  Obs.Counter.add (Obs.Registry.counter reg "proof.bin.exports") !export_count;
  Buffer.contents buf

let is_binary data =
  String.length data > String.length magic && String.sub data 0 (String.length magic) = magic

let is_hinted data =
  is_binary data
  && String.length data > String.length magic
  && Char.code data.[String.length magic] = version_hinted

(* --- record reader --- *)

type reader = {
  data : string;
  mutable pos : int;
  declared : int;  (** node count from the header *)
  mutable defined : int;  (** node records consumed so far *)
  version : int;
  shards : shard array;
}

let declared_nodes r = r.declared
let defined_nodes r = r.defined
let offset r = r.pos
let version_of r = r.version
let shards r = r.shards
let shard_reader r i = { r with pos = r.shards.(i).byte_start; defined = r.shards.(i).start_pos }

let get_varint r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if r.pos >= String.length r.data then corrupt r.pos "truncated varint";
    if !shift > 56 then corrupt r.pos "varint overflow";
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  !v

let get_deltas r ~what =
  let k = get_varint r in
  if k > String.length r.data - r.pos then corrupt r.pos "%s length overruns the data" what;
  let arr = Array.make k 0 in
  for i = 0 to k - 1 do
    let d = get_varint r in
    if i = 0 then arr.(0) <- d
    else if d = 0 then corrupt r.pos "non-increasing %s" what
    else arr.(i) <- arr.(i - 1) + d
  done;
  arr

(* Shard-table parse for the hinted format: strictly increasing end
   positions covering all nodes, per-shard body byte lengths that sum
   to exactly the remaining data, and per-shard export lists (position
   + result clause) for every node referenced across a boundary. *)
let read_shard_table r declared =
  let s_count = get_varint r in
  if s_count = 0 then corrupt r.pos "zero shards";
  if s_count > declared then corrupt r.pos "more shards than nodes";
  let ends = Array.make s_count 0 in
  let lens = Array.make s_count 0 in
  let exports = Array.make s_count [||] in
  let prev_end = ref 0 in
  for s = 0 to s_count - 1 do
    let start = !prev_end in
    let d = get_varint r in
    if d = 0 then corrupt r.pos "empty shard";
    let e = start + d in
    if e > declared then corrupt r.pos "shard end beyond the node count";
    ends.(s) <- e;
    prev_end := e;
    lens.(s) <- get_varint r;
    let ec = get_varint r in
    if ec > String.length r.data - r.pos then corrupt r.pos "export count overruns the data";
    let prev_pos = ref 0 in
    exports.(s) <-
      Array.init ec (fun i ->
          let d = get_varint r in
          let p = if i = 0 then d else !prev_pos + d in
          if i > 0 && d = 0 then corrupt r.pos "non-increasing export positions";
          if p < start || p >= e then corrupt r.pos "export position outside its shard";
          prev_pos := p;
          let lits = get_deltas r ~what:"export clause literals" in
          let clause =
            try Clause.of_array lits
            with Invalid_argument msg -> corrupt r.pos "bad export clause: %s" msg
          in
          (p, clause))
  done;
  if ends.(s_count - 1) <> declared then corrupt r.pos "shard table does not cover all nodes";
  let body_start = r.pos in
  let total = Array.fold_left ( + ) 0 lens in
  if total <> String.length r.data - body_start then
    corrupt r.pos "shard byte lengths disagree with the data size";
  let byte_start = ref body_start in
  Array.init s_count (fun s ->
      let start_pos = if s = 0 then 0 else ends.(s - 1) in
      let sh =
        {
          start_pos;
          end_pos = ends.(s);
          byte_start = !byte_start;
          byte_stop = !byte_start + lens.(s);
          exports = exports.(s);
        }
      in
      byte_start := sh.byte_stop;
      sh)

let reader data =
  if not (is_binary data) then corrupt 0 "bad magic (not a %s certificate)" magic;
  let vpos = String.length magic in
  let v = Char.code data.[vpos] in
  if v <> version && v <> version_hinted then
    corrupt vpos "unsupported format version %d (want %d or %d)" v version version_hinted;
  let r = { data; pos = vpos + 1; declared = 0; defined = 0; version = v; shards = [||] } in
  let declared = get_varint r in
  if declared = 0 then corrupt r.pos "empty certificate";
  (* Every node record takes at least one byte, so a count beyond the
     data size is corrupt — checked before any count-sized allocation. *)
  if declared > String.length data then corrupt r.pos "node count overruns the data";
  let shards =
    if v = version then
      [|
        {
          start_pos = 0;
          end_pos = declared;
          byte_start = r.pos;
          byte_stop = String.length data;
          exports = [||];
        };
      |]
    else read_shard_table r declared
  in
  { r with declared; shards }

let next r =
  if r.pos >= String.length r.data then begin
    if r.defined < r.declared then
      corrupt r.pos "certificate ends after %d of %d nodes" r.defined r.declared;
    None
  end
  else begin
    let at = r.pos in
    let tag = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    (* Delete records may trail the final node (freeing the root's
       antecedents); further node records may not. *)
    if tag <> 3 && r.defined = r.declared then corrupt at "trailing bytes after the last node";
    match tag with
    | 0 | 1 ->
      let lits = get_deltas r ~what:"clause literals" in
      let clause =
        try Clause.of_array lits
        with Invalid_argument msg -> corrupt at "bad leaf clause: %s" msg
      in
      r.defined <- r.defined + 1;
      Some (Leaf { clause; assumption = tag = 1 })
    | 2 ->
      let pos = r.defined in
      let k = get_varint r in
      if k < 2 then corrupt at "chain with %d antecedents" k;
      if k > String.length r.data - at then corrupt at "chain length overruns the data";
      let antecedents =
        Array.init k (fun _ ->
            let d = get_varint r in
            if d = 0 || d > pos then corrupt at "antecedent reference out of range";
            pos - d)
      in
      let pivots =
        if r.version = version_hinted then Array.init (k - 1) (fun _ -> get_varint r) else [||]
      in
      r.defined <- r.defined + 1;
      Some (Chain { antecedents; pivots })
    | 3 ->
      let ids = get_deltas r ~what:"delete ids" in
      if Array.length ids = 0 then corrupt at "empty delete record";
      if ids.(Array.length ids - 1) >= r.defined then
        corrupt at "delete of an undefined node";
      Some (Delete ids)
    | t -> corrupt at "unknown record tag %d" t
  end

(* --- decoding --- *)

let decode data =
  match
    let r = reader data in
    let dst = R.create () in
    let ids = Array.make (declared_nodes r) (-1) in
    let rec loop () =
      match next r with
      | None -> ()
      | Some record ->
        (match record with
        | Leaf { clause; assumption } ->
          ids.(r.defined - 1) <- R.add_leaf ~assumption dst clause
        | Chain { antecedents; pivots = hints } ->
          let antecedents = Array.map (fun p -> ids.(p)) antecedents in
          let pivots = Array.make (Array.length antecedents - 1) 0 in
          let acc = ref (R.clause_of dst antecedents.(0)) in
          for i = 1 to Array.length antecedents - 1 do
            if Array.length hints > 0 then begin
              (* Hinted chain: follow the stored pivot, no search. *)
              let pivot = hints.(i - 1) in
              match Clause.resolve_on !acc (R.clause_of dst antecedents.(i)) ~pivot with
              | resolvent ->
                pivots.(i - 1) <- pivot;
                acc := resolvent
              | exception Invalid_argument msg ->
                corrupt (offset r) "invalid hinted resolution step: %s" msg
            end
            else
              match Clause.resolve_clash !acc (R.clause_of dst antecedents.(i)) with
              | None -> corrupt (offset r) "no clashing variable in resolution step"
              | Some (resolvent, pivot) ->
                pivots.(i - 1) <- pivot;
                acc := resolvent
              | exception Invalid_argument msg ->
                corrupt (offset r) "invalid resolution step: %s" msg
          done;
          ids.(r.defined - 1) <- R.add_chain dst ~clause:!acc ~antecedents ~pivots
        | Delete _ -> () (* memory-management advice; nothing to free here *));
        loop ()
    in
    loop ();
    (dst, ids.(declared_nodes r - 1))
  with
  | result -> result
  | exception Corrupt { offset; reason } ->
    failwith (Printf.sprintf "Binfmt.decode: byte %d: %s" offset reason)
