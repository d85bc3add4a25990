(** Indexed binary max-heap over variable indices, ordered by an
    external score function — the VSIDS decision order.  Supports
    decrease/increase-key via {!update} because scores change while
    variables sit in the heap. *)

type t

(** [create score] is an empty heap comparing elements by [score]
    (called at comparison time, so callers mutate scores then
    {!update}). *)
val create : (int -> float) -> t

val is_empty : t -> bool
val mem : t -> int -> bool

(** Insert a new element (no-op if present). *)
val insert : t -> int -> unit

(** Remove every element, keeping the allocated space. *)
val clear : t -> unit

(** Remove and return the maximum-score element.
    @raise Invalid_argument if empty. *)
val pop : t -> int

(** Restore heap order around [x] after its score changed
    (no-op if absent). *)
val update : t -> int -> unit

val size : t -> int
