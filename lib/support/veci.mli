(** Growable vectors of unboxed [int]s.

    Used pervasively by the AIG, CNF and SAT packages for adjacency
    lists, clause storage and trails.  All indices are 0-based; reading
    outside [0, size) is a programming error checked by assertion. *)

type t

(** [create ()] is an empty vector. *)
val create : ?capacity:int -> unit -> t

(** [make n x] is a vector of [n] elements all equal to [x]. *)
val make : int -> int -> t

(** Number of elements currently stored. *)
val size : t -> int

val is_empty : t -> bool

val get : t -> int -> int
val set : t -> int -> int -> unit

(** Append one element, growing the backing store as needed. *)
val push : t -> int -> unit

(** Remove and return the last element.  @raise Invalid_argument if empty. *)
val pop : t -> int

(** Last element without removing it. *)
val last : t -> int

(** [shrink v n] truncates [v] to its first [n] elements. *)
val shrink : t -> int -> unit

(** Remove all elements (capacity is retained). *)
val clear : t -> unit

(** [grow v n x] extends [v] with copies of [x] until [size v >= n]. *)
val grow : t -> int -> int -> unit

(** [grown_capacity len n] is the length to grow a plain array of
    length [len] to so that it holds [n] elements: twice [len], or [n]
    if that is more.  For arrays kept beside vectors, such as tables
    indexed by id, so that growing them stays amortized O(1). *)
val grown_capacity : int -> int -> int

val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val exists : (int -> bool) -> t -> bool
val to_array : t -> int array
val to_list : t -> int list
val of_array : int array -> t
val of_list : int list -> t

(** Swap the elements at two indices. *)
val swap : t -> int -> int -> unit

(** In-place ascending sort. *)
val sort : t -> unit

val copy : t -> t
val pp : Format.formatter -> t -> unit
