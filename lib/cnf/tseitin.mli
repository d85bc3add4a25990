(** The Tseitin transform of an AIG.

    Because the AIG and the CNF share the literal encoding, the mapping
    is the identity: AIG node [n] becomes CNF variable [n].  Each AND
    node [n = f0 AND f1] contributes the three definitional clauses

    {v (~n f0) (~n f1) (n ~f0 ~f1) v}

    and the constant node contributes the unit clause [(1)] (literal 1
    = "variable 0 is false"), fixing AIG literal 0 to false.  The
    conjunction of these clauses is satisfied exactly by the consistent
    simulations of the graph. *)

(** Definitional clauses of every AND node, plus the constant unit.
    [num_vars] equals [Graph.num_nodes]. *)
val of_graph : Aig.t -> Formula.t

(** The three definitional clauses of one AND node. *)
val clauses_of_and : Aig.t -> int -> Clause.t list

(** The constant-node unit clause [(1)]. *)
val constant_unit : Clause.t

(** [miter_formula g] is [of_graph g] plus the unit clause asserting
    output 0, i.e. the CNF whose unsatisfiability certifies that the
    (single) miter output is constant false.
    @raise Invalid_argument unless [g] has exactly one output. *)
val miter_formula : Aig.t -> Formula.t
