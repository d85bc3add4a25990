(** Streaming validation of binary certificates, both CECB versions.

    {!Checker} materializes a whole {!Resolution.t} before looking at a
    single chain.  This checker instead validates a {!Binfmt}
    certificate in one forward pass over the bytes, keeping only the
    {e live} clauses: each clause is resident from its defining record
    until its delete record, so the live set stays far below the proof
    size.  Every chain's clause is recomputed by resolution
    ({!Binfmt.resolve_chain}).  A hinted (version-2) chain spells its
    pivots out, LRAT/GRIT-style, and each step follows its hint with no
    search; a version-1 chain carries none, and each step resolves on
    the variable the two operands clash on.

    The hinted header's shard table is enforced in stream order: the
    records fill each shard's byte span with exactly its declared node
    count, every declared export equals the clause its node derives,
    and every antecedent from an earlier shard is exported.  Leaves
    must pass the leaf test when one is given, assumption leaves are
    rejected, and the final node must hold the empty clause.  A
    rejection reports the first failure in stream order.

    The ambient {!Obs} registry records [check.checks], [check.chains],
    [check.steps], [check.hints_followed], [check.shards],
    [check.rejects] and the high-water gauge [check.peak_live]. *)

type stats = {
  nodes : int;  (** node records validated *)
  chains : int;  (** resolution chains recomputed *)
  steps : int;  (** resolution steps performed *)
  hints_followed : int;
      (** steps resolved on their stored hint: [steps] for version-2
          input, [0] for version-1 *)
  deletes : int;  (** delete records applied *)
  peak_live : int;  (** maximum simultaneously resident clauses *)
  shards : int;  (** shards in the table; [1] for version-1 input *)
}

type error = {
  offset : int;  (** byte position the failure was detected at *)
  reason : string;
  malformed : bool;
      (** [true]: the byte stream itself is corrupt (bad magic,
          truncation, a shard table the records do not fit);
          [false]: well-formed but not a valid refutation *)
  chain : int option;
      (** node position (chain id) the failure is attributed to, when
          one is; header and delete failures carry none *)
}

val pp_error : Format.formatter -> error -> unit

(** [check ?leaf_ok ?formula data] validates [data] as a binary
    certificate of unsatisfiability; with [leaf_ok], every leaf must
    pass it (for a miter's certificate,
    [~leaf_ok:(Cnf.Tseitin.miter_mem miter)]).  [formula] is the same
    test as [~leaf_ok:(Cnf.Formula.mem formula)] (given both, a leaf
    must pass both).  No library code passes it; it stays because
    perfbench's serve replay times [check ~formula] as its
    [proof.hint_check] layer.  Never raises on untrusted input:
    corruption and invalid proofs both come back as [Error]. *)
val check :
  ?leaf_ok:(Cnf.Clause.t -> bool) -> ?formula:Cnf.Formula.t -> string -> (stats, error) result
