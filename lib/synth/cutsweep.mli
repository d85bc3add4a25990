(** Cut sweeping: SAT-free functional reduction.

    Rebuilds a graph in topological order maintaining a dictionary from
    {e (cut leaf literals, canonical truth table)} to already-built
    literals.  When a node's cut function (over already-rebuilt leaves)
    is found in the dictionary — directly or complemented — the node is
    replaced by the recorded literal instead of creating a new AND:
    functional matches that structural hashing misses (Kuehlmann's cut
    sweeping).  Weaker than {e fraiging} (only window functions over up
    to [k] shared leaves are matched) but needs no SAT calls. *)

(** [reduce ?k ?max_cuts g] returns a functionally identical graph
    with matched nodes merged ([k] defaults to 4, [max_cuts] to 8).
    Unreachable leftovers are cleaned up. *)
val reduce : ?k:int -> ?max_cuts:int -> Aig.t -> Aig.t
