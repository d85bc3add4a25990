(** Streaming validation of binary certificates.

    {!Checker} materializes a whole {!Resolution.t} before looking at a
    single chain.  This checker instead validates a {!Binfmt}
    certificate in one forward pass over the bytes, keeping only the
    {e live} clauses — each clause is resident from its defining record
    until its delete record — so memory is bounded by the peak live
    count, not the proof size.  Chain result clauses are recomputed by
    resolution; for hinted (version-2) certificates the searched pivot
    is additionally cross-checked against the stored hint, the shard
    table is enforced (byte spans, per-shard node counts, export
    clauses matching their derivations, cross-shard antecedents
    exported), so this sequential pass accepts exactly the certificates
    the sharded {!Hint_check} accepts.  Leaves are checked with the
    leaf test when one is given, assumption leaves are rejected, and
    the final node must hold the empty clause.

    The ambient {!Obs} registry records [proof.stream.checks],
    [proof.stream.chains], [proof.stream.rejects] and the high-water
    gauge [proof.stream.peak_live]. *)

type stats = {
  nodes : int;  (** node records validated *)
  chains : int;  (** resolution chains recomputed *)
  deletes : int;  (** delete records applied *)
  peak_live : int;  (** maximum simultaneously resident clauses *)
  live_at_end : int;  (** clauses never freed (the root among them) *)
}

type error = {
  offset : int;  (** byte position the failure was detected at *)
  reason : string;
  malformed : bool;
      (** [true]: the byte stream itself is corrupt (bad magic, truncation,
          dangling reference); [false]: well-formed but not a valid
          refutation *)
  chain : int option;
      (** node position (chain id) the failure is attributed to, when
          one is — header and delete failures carry none *)
}

val pp_error : Format.formatter -> error -> unit

(** [check ?leaf_ok data] validates [data] as a binary certificate of
    unsatisfiability; with [leaf_ok], every leaf must pass it (for a
    miter's certificate, [~leaf_ok:(Cnf.Tseitin.miter_mem miter)]).
    Never raises on untrusted input — corruption and invalid proofs
    both come back as [Error]. *)
val check : ?leaf_ok:(Cnf.Clause.t -> bool) -> string -> (stats, error) result
