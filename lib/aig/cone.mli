(** Transitive fanin cones and structural supports. *)

(** [mark g ~marks ~mark lits] sets the [marks] entry of every node in
    the transitive fanin of [lits] (the literals' own nodes included,
    the constant excluded) to [mark].  It does not enter a node already
    marked, so it costs the nodes it newly marks, not the graph.
    [marks] has one entry per node and belongs to the caller. *)
val mark : Graph.t -> marks:int array -> mark:int -> Lit.t list -> unit

(** [unmarked g ~marks ~mark lits] is the nodes in the transitive fanin
    of [lits] (the literals' own nodes included, the constant excluded)
    whose [marks] entry is not [mark], in ascending — topological —
    order.  The walk sets each such entry to [mark] as it reaches the
    node and does not enter a node already marked, so it costs the
    nodes it returns, not the graph.  [marks] has one entry per node
    and belongs to the caller: a new [mark] makes the next walk start
    afresh; the same [mark] returns only what earlier walks did not
    reach, which over marked sets closed under fanin (every node's
    fanins marked too) is exactly the cone minus the marked nodes. *)
val unmarked : Graph.t -> marks:int array -> mark:int -> Lit.t list -> int array

(** Primary-input indices (0-based) in the structural support. *)
val support : Graph.t -> Lit.t list -> int array
