(** Assumption lifting: turning a refutation of [F ∧ a1 ∧ ... ∧ ak]
    into a derivation, from [F] alone, of a clause subsuming
    [(¬a1 ∨ ... ∨ ¬ak)].

    This is the step that converts each SAT-sweeping query ("assume
    node [x] is 1 and node [y] is 0; derive ⊥") into an {e equivalence
    lemma clause} [(¬x ∨ y)] proved from the miter CNF, which later
    queries may use as an input clause — the paper's proof-stitching
    mechanism.

    The transformation replays every chain in the cone of the
    refutation, skipping resolutions against assumption-unit leaves
    (which re-introduces the negated assumption literal and lets it
    propagate to the root) and dropping steps that have become
    redundant.  With CDCL-produced proofs the replay never creates a
    tautology: a literal satisfied at level 0 cannot occur in any
    conflict or reason clause. *)

exception Lift_error of string

(** Working arrays of {!refutation}, indexed by proof id and grown on
    demand, plus its registry handles ([proof.lifts],
    [proof.lift_nodes], [proof.lift_depth]), resolved from the ambient
    registry at the first lift.  A caller that lifts many refutations
    (the per-pair sweeping engine lifts one per query) creates one and
    passes it to every call, so a lift allocates only the chains it
    adds.  The scratch belongs to its creator: one per engine, never
    shared by two calls running at once (engines on different domains
    each own theirs). *)
type scratch

val scratch : unit -> scratch

(** [refutation proof ~root] rewrites (inside [proof]) the refutation
    rooted at [root], eliminating every assumption leaf, and returns
    the new root and its clause (a sub-clause of the negated
    assumptions).  Nodes that need no change are reused, so the result
    shares structure with the original.  The walk also uses [proof]'s
    own scratch ({!Resolution.reachable_into}).
    @raise Lift_error if [root] is not an empty clause, or if replay
    encounters a malformed step. *)
val refutation :
  scratch:scratch -> Resolution.t -> root:Resolution.id -> Resolution.id * Cnf.Clause.t
