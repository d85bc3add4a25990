(** Independent validation of resolution proofs.

    The checker re-derives every chain with {!Cnf.Clause.resolve} and
    compares against the stored clause, and optionally validates that
    every leaf in the cone of the root passes a given test (typically
    membership in the miter CNF, decided on the netlist by
    {!Cnf.Tseitin.miter_mem}).
    It shares no code with the solver's proof logging, which is the
    point: a bug in logging cannot also hide in checking. *)

type error = {
  node_id : Resolution.id;
  reason : string;
}

val pp_error : Format.formatter -> error -> unit

(** [check proof ~root ~leaf_ok] validates the sub-DAG rooted at
    [root]:
    - every chain resolves to exactly its stored clause;
    - the root's clause is empty (a refutation);
    - no assumption leaves remain in the cone;
    - when [leaf_ok] is given, every leaf clause satisfies it.

    A certificate of a miter is checked with
    [~leaf_ok:(Cnf.Tseitin.miter_mem miter)], against the netlist
    itself.  [formula] is the same test as
    [~leaf_ok:(Cnf.Formula.mem formula)] (given both, a leaf must pass
    both).  No library code passes it; it stays because perfbench's
    prove replay times [check ~formula] as its [proof.check] layer.

    Returns the number of chain nodes verified. *)
val check :
  Resolution.t ->
  root:Resolution.id ->
  ?leaf_ok:(Cnf.Clause.t -> bool) ->
  ?formula:Cnf.Formula.t ->
  unit ->
  (int, error) result

(** [leaf_test ?leaf_ok ?formula ()] is the leaf test {!check} applies:
    [None] when neither is given, otherwise one predicate that a leaf
    must pass — both, when both are given.  {!Hint_check} shares it. *)
val leaf_test :
  ?leaf_ok:(Cnf.Clause.t -> bool) ->
  ?formula:Cnf.Formula.t ->
  unit ->
  (Cnf.Clause.t -> bool) option

(** [check_derivation proof ~root ~expected ~leaf_ok] is like {!check}
    but for lemma derivations: the root clause must {e subsume}
    [expected] rather than be empty. *)
val check_derivation :
  Resolution.t ->
  root:Resolution.id ->
  expected:Cnf.Clause.t ->
  ?leaf_ok:(Cnf.Clause.t -> bool) ->
  unit ->
  (int, error) result
