(** Bit-parallel simulation of AIGs.

    Each node carries [words] 64-bit simulation words, so one pass
    evaluates the graph under [64 * words] input patterns at once.
    This is the workhorse behind candidate-equivalence detection in
    SAT sweeping and behind the semantic test oracles. *)

type t

(** Allocate a simulator for [g] with [words] 64-bit words per node.
    Input words start at zero. *)
val create : Graph.t -> words:int -> t

val graph : t -> Graph.t
val words : t -> int

(** Fill every input word from the generator. *)
val randomize_inputs : t -> Support.Rng.t -> unit

(** [set_input_word sim ~input ~word v] sets one 64-bit slice of a
    primary input's stimulus. *)
val set_input_word : t -> input:int -> word:int -> int64 -> unit

(** [set_input_bit sim ~input ~bit b] sets pattern [bit] (0-based,
    across all words) of a primary input. *)
val set_input_bit : t -> input:int -> bit:int -> bool -> unit

(** Recompute all AND nodes from the current input stimulus. *)
val run : t -> unit

(** Simulation words of a node's positive literal (no copy: do not
    mutate). *)
val node_values : t -> int -> int64 array

(** [lit_word sim l w] is word [w] of literal [l] (complemented as
    needed). *)
val lit_word : t -> Lit.t -> int -> int64

(** All words of a literal, as a fresh array. *)
val lit_values : t -> Lit.t -> int64 array

(** [lit_bit sim l ~bit] extracts one simulated pattern. *)
val lit_bit : t -> Lit.t -> bit:int -> bool

(** Number of patterns ([64 * words]). *)
val num_patterns : t -> int

(** {1 Truth tables}

    For graphs with at most 16 inputs, exhaustive simulation gives the
    complete truth table of a literal: bit [i] of the result is the
    value under the assignment encoded by the binary expansion of [i]
    (input 0 is the least significant). *)

(** @raise Invalid_argument when the graph has more than 16 inputs. *)
val truth_table : Graph.t -> Lit.t -> int64 array

(** Compare two literals' truth tables (same graph, <= 16 inputs). *)
val equal_functions : Graph.t -> Lit.t -> Lit.t -> bool
