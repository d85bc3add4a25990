(** Proof trimming: extracting the cone of the refutation.

    Solvers log a chain for {e every} learned clause, but only a
    fraction of them feed the final empty clause.  Trimming rebuilds a
    proof containing exactly the reachable nodes — the standard
    post-processing step before shipping a certificate. *)

(** [cone proof ~root] is a fresh proof holding only the nodes
    reachable from [root], and the root's id there.  It copies through
    {!Resolution.import}, which uses [proof]'s scratch, so no two calls
    may run on one proof at once. *)
val cone : Resolution.t -> root:Resolution.id -> Resolution.t * Resolution.id

(** Nodes reachable from [root] vs. nodes in the whole store
    (reachable, total). *)
val sizes : Resolution.t -> root:Resolution.id -> int * int
