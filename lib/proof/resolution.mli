(** Resolution proof DAGs.

    A proof is an append-only store of nodes.  A {e leaf} holds a
    clause taken as given — a clause of the formula being refuted, or a
    temporary assumption unit (marked, so checkers and lifters can
    treat it specially).  A {e chain} is a trivial-resolution chain:
    antecedents [c0 c1 ... ck] with pivot variables [v1 ... vk],
    denoting [resolve (... resolve (resolve c0 c1 v1) c2 v2 ...) ck vk].
    Chains are exactly what a CDCL solver produces per learned clause,
    and what clause minimization extends.

    The store records the {e claimed} result clause of each chain; the
    {!Checker} recomputes and compares.  Node identifiers are dense
    integers, valid only within their own proof; {!import} re-bases a
    sub-DAG from one proof into another. *)

type id = int

type node =
  | Leaf of { clause : Cnf.Clause.t; assumption : bool }
  | Chain of { clause : Cnf.Clause.t; antecedents : id array; pivots : int array }

type t

val create : unit -> t

(** Number of nodes allocated so far. *)
val size : t -> int

(** [add_leaf t clause] registers an input clause and returns its id.
    Leaves are hash-consed per proof: re-adding the same non-assumption
    clause returns the existing id. *)
val add_leaf : ?assumption:bool -> t -> Cnf.Clause.t -> id

(** [append_leaf t clause] appends a new non-assumption leaf without
    looking for an equal one, and without indexing it for {!add_leaf}:
    for stores whose caller keeps track of its leaves itself. *)
val append_leaf : t -> Cnf.Clause.t -> id

(** [clear t] empties [t], keeping its allocation: ids restart at [0],
    as in a new store. *)
val clear : t -> unit

(** [add_chain t ~clause ~antecedents ~pivots] appends a chain.
    @raise Invalid_argument unless
    [Array.length antecedents = Array.length pivots + 1 >= 2]
    and all antecedent ids are already allocated. *)
val add_chain : t -> clause:Cnf.Clause.t -> antecedents:id array -> pivots:int array -> id

val node : t -> id -> node

(** Result clause of any node. *)
val clause_of : t -> id -> Cnf.Clause.t

val is_assumption : t -> id -> bool

val iter : (id -> node -> unit) -> t -> unit

(** Node ids reachable from [root] (including it), in increasing
    (hence topological) order. *)
val reachable : t -> root:id -> id array

(** [import dst src ~root ~map_leaf] copies the sub-DAG of [src]
    rooted at [root] into [dst].  Every [src] leaf is translated by
    [map_leaf], which returns the [dst] node standing for it — either a
    [dst] leaf or a previously derived [dst] chain (this is how lemma
    sub-proofs are stitched into the global proof).  Returns the [dst]
    id of the root.  Chains are copied verbatim with re-based ids. *)
val import : t -> t -> root:id -> map_leaf:(id -> Cnf.Clause.t -> id) -> id

(** Recompute the result of a chain with {!Cnf.Clause.resolve_on},
    ignoring the stored clause.  Raises [Invalid_argument] when a pivot
    is not actually clashing.  Exposed for the checker and tests. *)
val recompute_chain : t -> antecedents:id array -> pivots:int array -> Cnf.Clause.t

val pp_node : Format.formatter -> node -> unit
