(** Miter construction for equivalence checking.

    A miter of two combinational circuits with identical interfaces is
    a single-output circuit that evaluates to 1 exactly on the input
    assignments where the circuits disagree; the circuits are
    equivalent iff the miter output is constant 0. *)

(** [build a b] shares the primary inputs, XORs outputs pairwise and
    ORs the disagreement bits into the single output.
    @raise Invalid_argument if interfaces differ. *)
val build : Graph.t -> Graph.t -> Graph.t

(** Pairwise miter: one output per output pair, not ORed together
    (useful for per-output equivalence checking and for sweeping
    statistics). *)
val build_pairwise : Graph.t -> Graph.t -> Graph.t

(** [of_lits g a b] appends to [g] a literal that is 1 iff [a <> b]. *)
val of_lits : Graph.t -> Lit.t -> Lit.t -> Lit.t
