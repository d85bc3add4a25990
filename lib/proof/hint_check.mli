(** Search-free, shard-parallel validation of hinted certificates.

    {!Stream_check} re-infers every resolution step by searching for
    the clashing variable.  Hinted (CECB version-2) certificates spell
    the pivot sequence out (LRAT/GRIT-style), so this checker follows
    the hints in a strict linear scan — zero clause-search steps — with
    the same bounded live-set discipline: clauses are resident only
    between their defining and delete records.

    The hinted header's {e shard table} (the section boundaries the
    prover recorded at sweep time) additionally lets the shards check
    {e concurrently}: [jobs] OCaml domains pull shards off a shared
    cursor, each validating its byte span independently — cross-shard
    antecedents come from the header's export table, whose entries the
    owning shard verifies against the actual derivations — and the
    results {e join at the stitch points}: delete/use reports are
    replayed globally so a node deleted before a cross-shard use, or
    deleted twice, rejects exactly as in the sequential pass.  Every
    shard is always checked (no early abort), so verdict, error choice
    and aggregate counters are identical for every [jobs] value.

    The ambient {!Obs} registry records [check.checks], [check.chains],
    [check.steps], [check.hints_followed] (always equal to
    [check.steps]: the no-search pin), [check.shards], [check.rejects],
    the high-water gauge [check.peak_live], and one [check.shard] span
    per shard. *)

type stats = {
  nodes : int;  (** node records validated *)
  chains : int;  (** resolution chains recomputed *)
  steps : int;  (** resolution steps performed *)
  hints_followed : int;  (** steps resolved via their stored hint — always [steps] *)
  deletes : int;  (** delete records applied *)
  peak_live : int;
      (** maximum clauses resident in any one shard (local live set
          plus held imports); never exceeds {!Stream_check}'s peak on
          the same certificate *)
  shards : int;  (** shards validated *)
}

type error = {
  offset : int;  (** byte position the failure was detected at *)
  reason : string;
  malformed : bool;
      (** [true]: the byte stream itself is corrupt; [false]:
          well-formed but not a valid refutation *)
  chain : int option;  (** node position the failure is attributed to, when one is *)
}

val pp_error : Format.formatter -> error -> unit

(** [check ?leaf_ok ?formula ?jobs data] validates [data] as a
    {e hinted} binary certificate of unsatisfiability; with [leaf_ok],
    every leaf must pass it (for a miter's certificate,
    [~leaf_ok:(Cnf.Tseitin.miter_mem miter)]).  [formula] is the same
    test as [~leaf_ok:(Cnf.Formula.mem formula)] (given both, a leaf
    must pass both).  No library code passes it; it stays because
    perfbench's serve replay times [check ~formula] as its
    [proof.hint_check] layer.  [jobs] (default 1) bounds the domains
    checking shards concurrently — it affects wall time only, never
    the result.  Version-1 certificates are refused (use
    {!Stream_check}).  Never raises on untrusted input. *)
val check :
  ?leaf_ok:(Cnf.Clause.t -> bool) ->
  ?formula:Cnf.Formula.t ->
  ?jobs:int ->
  string ->
  (stats, error) result
