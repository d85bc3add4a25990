(** Compact binary certificates.

    The dense ASCII trace ({!Export.trace_to_string}) spells every
    node id, literal and {e result clause} out in decimal; for shipping
    and storing certificates this module provides a binary format that
    is typically several times smaller and — unlike the trace — can be
    validated in one forward pass holding only live clauses
    ({!Hint_check}).

    {2 Format}

    {v
    "CECB" <version byte>
    -- version 2 (hinted) only:
    varint: node count n
    varint: shard count S, then S shard entries:
      varint  end position delta (strictly increasing, last end = n)
      varint  body byte length of the shard's record span
      varint  export count e, then e exports:
        varint  node position delta (ascending, within the shard)
        varint k, k delta-coded literals (the node's result clause)
    -- version 1 starts records right after the node count:
    then records; node records are numbered 0..n-1 in order:
      tag 0x00  leaf            varint k, k delta-coded literals
      tag 0x01  assumption leaf same layout as a leaf
      tag 0x02  chain           varint k (#antecedents, >= 2), then k
                                antecedent references, each the positive
                                backward delta [pos - ref]; version 2
                                additionally stores k-1 pivot variables
                                (the resolution hints)
      tag 0x03  delete          varint m, m delta-coded node ids whose
                                clauses are dead from here on
    v}

    All integers are unsigned LEB128 varints of at most nine bytes,
    the ninth carrying six value bits, so every integer the reader
    returns is a non-negative OCaml int: a longer varint, or a ninth
    byte that would set the sign bit, is {!Corrupt}, as is a count or
    a gap sum beyond what the data can hold.  Literals use the
    internal [2*var + sign] encoding and, like delete-id lists, are
    sorted and gap-coded.  Version-1 chains store {e no result clause and no
    pivots}: a non-tautological resolvent exists only when exactly one
    variable clashes between the operands, so readers re-derive each
    pivot ({!Cnf.Clause.resolve_clash}) and recompute each result by
    resolution.
    Version-2 (hinted, LRAT/GRIT-style) chains additionally spell the
    pivot sequence out, so a checker follows the hints with {e zero
    search} ({!Cnf.Clause.resolve_on}); a corrupted hint either names a
    non-clashing variable or yields a tautology, so it can never
    produce an accepted-but-wrong clause.

    The hinted header also carries a {e shard table}: the node stream
    is split at the section boundaries the prover recorded (the end of
    each refuted sweep query's derivation), and every node referenced
    across a shard boundary is {e exported}: its position and result
    clause appear in the header.  {!Hint_check} enforces the table as
    it streams: byte spans, per-shard node counts, export clauses
    equal to their derivations, and cross-shard antecedents exported.
    A single-shard table (no boundaries) degenerates to the version-1
    layout plus hints.

    The encoders walk the cone of [root] (so encoding trims), place
    each leaf immediately before its first consumer, and emit a delete
    record after the last use of every node — computed by a
    backward-trimming pass — so a streaming checker's live set stays
    small.  Both versions share the same emission plan: identical node
    order and delete schedule, hence identical peak live set.  The node
    stream is topological and the root is the final node record, never
    deleted. *)

val magic : string

(** Format version written by {!encode}. *)
val version : int

(** Format version written by {!encode_hinted}. *)
val version_hinted : int

(** [true] when [data] starts with the binary certificate magic;
    ASCII traces (which start with a decimal id) never match. *)
val is_binary : string -> bool

(** [true] when [data] is a binary certificate in the hinted
    (version-2) format. *)
val is_hinted : string -> bool

(** Serialize the cone of [root].  Node and delete-record counts and
    the encoded size are recorded in the ambient {!Obs} registry
    ([proof.bin.nodes], [proof.bin.delete_records], [proof.bin.bytes]). *)
val encode : Resolution.t -> root:Resolution.id -> string

(** Serialize the cone of [root] in the hinted format.  [boundaries]
    are proof ids marking the {e last node of each section} (query
    sub-derivations recorded at sweep time); each becomes a
    shard end once mapped to stream positions.  Boundaries outside the
    cone, duplicated, or delimiting shards smaller than
    [min_shard_nodes] (default 256) are coalesced away; no boundaries
    means one shard.  Also records [proof.bin.shards] and
    [proof.bin.exports] in the ambient registry. *)
val encode_hinted :
  ?boundaries:Resolution.id array ->
  ?min_shard_nodes:int ->
  Resolution.t ->
  root:Resolution.id ->
  string

(** Rebuild a {!Resolution.t} and return it with the root id.  Chain
    clauses are recomputed by {!resolve_chain}.  Delete records are
    validated but not acted on — the store keeps every node.
    @raise Failure on malformed input or an invalid resolution step. *)
val decode : string -> Resolution.t * Resolution.id

(** {2 Record-level reader}

    Shared by {!decode} and {!Hint_check}: iterate the records of a
    certificate without materializing the DAG. *)

exception Corrupt of { offset : int; reason : string }

type record =
  | Leaf of { clause : Cnf.Clause.t; assumption : bool }
  | Chain of { antecedents : int array; pivots : int array }
      (** antecedent values are node positions, already delta-resolved;
          [pivots] has one hint per resolution step for version-2 input
          and is empty for version-1 *)
  | Delete of int array  (** sorted node positions, already defined *)

(** One contiguous slice of the node stream, from the header's shard
    table (version 1 synthesizes a single all-covering shard).
    Positions [start_pos..end_pos-1] live in the bytes from the
    previous shard's [byte_stop] (the first shard: the end of the
    header) up to [byte_stop - 1]; [exports] lists, in ascending
    position order, the nodes later shards reference together with
    their declared result clauses. *)
type shard = {
  start_pos : int;
  end_pos : int;
  byte_stop : int;
  exports : (int * Cnf.Clause.t) array;
}

type reader

(** Validate the magic, version, node count and (hinted format) the
    whole shard table.  @raise Corrupt. *)
val reader : string -> reader

(** Node count declared by the header. *)
val declared_nodes : reader -> int

(** Node records consumed so far; the node defined by the latest
    [Leaf]/[Chain] record has position [defined_nodes r - 1]. *)
val defined_nodes : reader -> int

(** Current byte offset (for error reporting). *)
val offset : reader -> int

(** Format version byte the data carries ({!version} or
    {!version_hinted}). *)
val version_of : reader -> int

(** The shard table; a single synthetic shard for version-1 data. *)
val shards : reader -> shard array

(** Next record, or [None] at a clean end of data.  Structural
    validation only (tags, bounds, reference ranges, monotonicity);
    resolution steps and shard-boundary discipline are the caller's
    business.  @raise Corrupt. *)
val next : reader -> record option

(** [resolve_chain clause_of ~antecedents ~pivots] is the clause a
    [Chain] record derives: the antecedents resolved left to right,
    antecedent [i]'s clause being [clause_of antecedents.(i)], fetched
    once steps [1..i-1] have resolved.  With hints ([pivots] non-empty,
    version 2) step [i] resolves on [pivots.(i-1)]
    ({!Cnf.Clause.resolve_on}); without, on the one variable the
    operands clash on ({!Cnf.Clause.resolve_clash}).  Returns the clause
    with each step's pivot (the hints themselves for version-2 input),
    or [Error reason] naming the first step that fails.  Exceptions
    raised by [clause_of] pass through. *)
val resolve_chain :
  (int -> Cnf.Clause.t) ->
  antecedents:int array ->
  pivots:int array ->
  (Cnf.Clause.t * int array, string) result
