(** Clauses: sets of literals, stored as sorted duplicate-free arrays.

    The canonical representation makes clause equality, subsumption and
    resolution (the operations the proof checker performs millions of
    times) cheap and deterministic.  Literals use {!Aig.Lit}'s packed
    encoding. *)

type t = private int array

val empty : t
val is_empty : t -> bool

(** Build from literals; sorts and removes duplicates.
    @raise Invalid_argument if the result would be a tautology
    (contains both polarities of a variable) — tautologies never occur
    in Tseitin CNFs or resolution proofs and are rejected early. *)
val of_list : Aig.Lit.t list -> t

val of_array : Aig.Lit.t array -> t
val singleton : Aig.Lit.t -> t

(** [map_lits f c] applies [f] to every literal and re-canonicalizes.
    Used to translate clauses between literal numberings (e.g. from an
    extracted cone back into its source graph).
    @raise Invalid_argument if the image is a tautology. *)
val map_lits : (Aig.Lit.t -> Aig.Lit.t) -> t -> t

val size : t -> int
val mem : Aig.Lit.t -> t -> bool
val lits : t -> Aig.Lit.t array
val to_list : t -> Aig.Lit.t list
val iter : (Aig.Lit.t -> unit) -> t -> unit
val fold : ('a -> Aig.Lit.t -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [subsumes c d] iff every literal of [c] occurs in [d]. *)
val subsumes : t -> t -> bool

(** [resolve c d ~pivot] is the resolvent of [c] (containing the
    positive literal of variable [pivot]) and [d] (containing the
    negative literal): the union minus both pivot literals, computed
    in one merge of the two sorted literal arrays.
    @raise Invalid_argument if the pivot literals are not present as
    stated, or if the resolvent would be a tautology (a second
    variable clashes). *)
val resolve : t -> t -> pivot:int -> t

(** [resolve_on c d ~pivot] resolves on [pivot] in whichever
    orientation the two clauses hold it: [resolve c d] when [c] has the
    positive literal and [d] the negative one, else [resolve d c] (whose
    messages it raises). *)
val resolve_on : t -> t -> pivot:int -> t

(** [resolve_clash c d] resolves on the variable the two clauses clash
    on, found in the same single merge, and returns it with the
    resolvent; [None] when no variable clashes.
    @raise Invalid_argument when a second variable clashes (the
    resolvent would be a tautology). *)
val resolve_clash : t -> t -> (t * int) option

(** [resolve_any c d] resolves on the unique clashing variable.
    @raise Invalid_argument if there is no clash or more than one. *)
val resolve_any : c:t -> d:t -> t

(** Largest variable index occurring, or [-1] for the empty clause. *)
val max_var : t -> int

(** True under a total assignment ([assignment.(v)] is variable [v]). *)
val satisfied_by : t -> bool array -> bool

val pp : Format.formatter -> t -> unit
val to_dimacs_string : t -> string
