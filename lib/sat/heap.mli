(** Indexed binary max-heap over variable indices, ordered by a score
    array — the VSIDS decision order.  Supports decrease/increase-key
    via {!update} because scores change while variables sit in the
    heap.

    The heap holds no scores and no comparison function: every
    operation that reorders it reads the caller's [scores] array
    ([scores.(x)] is element [x]'s score) directly, so comparisons
    neither call a closure nor box a float, and the caller may replace
    that array (to grow it) between calls.  All calls on one heap must
    pass the same scores, updated only through {!update}. *)

type t

(** An empty heap. *)
val create : unit -> t

val is_empty : t -> bool
val mem : t -> int -> bool

(** [insert t scores x] inserts element [x] (no-op if present). *)
val insert : t -> float array -> int -> unit

(** Remove every element, keeping the allocated space. *)
val clear : t -> unit

(** Remove and return the maximum-score element.
    @raise Invalid_argument if empty. *)
val pop : t -> float array -> int

(** [update t scores x] restores heap order around [x] after its score
    changed (no-op if absent). *)
val update : t -> float array -> int -> unit

val size : t -> int
