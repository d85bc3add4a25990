(** And-Inverter Graphs with structural hashing.

    A graph holds one constant node (variable 0), a fixed set of
    primary inputs (variables 1..n), and two-input AND nodes whose
    fanins are {!Lit.t} values referring to earlier nodes, so node
    identifiers are a topological order by construction.  [and_]
    performs one-level constant folding and structural hashing, so
    building the same expression twice yields the same literal.

    Outputs are an ordered list of literals designating the functions
    the graph computes. *)

type t

(** [create ~num_inputs] is a graph with the given primary inputs and
    no AND nodes or outputs. *)
val create : num_inputs:int -> t

val num_inputs : t -> int

(** Total number of nodes: constant + inputs + ANDs. *)
val num_nodes : t -> int

val num_ands : t -> int
val num_outputs : t -> int

(** Positive literal of primary input [i] (0-based).
    @raise Invalid_argument if out of range. *)
val input : t -> int -> Lit.t

(** {1 Construction} *)

(** Structurally hashed AND with one-level simplification:
    [x AND true = x], [x AND false = false], [x AND x = x],
    [x AND not x = false]. *)
val and_ : t -> Lit.t -> Lit.t -> Lit.t

val or_ : t -> Lit.t -> Lit.t -> Lit.t
val xor_ : t -> Lit.t -> Lit.t -> Lit.t
val xnor_ : t -> Lit.t -> Lit.t -> Lit.t
val implies : t -> Lit.t -> Lit.t -> Lit.t

(** [mux g ~sel ~t ~e] is [if sel then t else e]. *)
val mux : t -> sel:Lit.t -> t:Lit.t -> e:Lit.t -> Lit.t

(** Conjunction / disjunction of a list (balanced tree). *)
val and_list : t -> Lit.t list -> Lit.t

val or_list : t -> Lit.t list -> Lit.t

val add_output : t -> Lit.t -> unit
val output : t -> int -> Lit.t
val outputs : t -> Lit.t array

(** Replace output [i]'s literal (used by rewriting). *)
val set_output : t -> int -> Lit.t -> unit

(** {1 Structure access} *)

(** Node classification by identifier. *)
val is_const_node : t -> int -> bool

val is_input_node : t -> int -> bool
val is_and_node : t -> int -> bool

(** Fanins of an AND node.  @raise Invalid_argument otherwise. *)
val fanin0 : t -> int -> Lit.t

val fanin1 : t -> int -> Lit.t

(** [iter_ands g f] applies [f] to every AND node identifier in
    topological (= increasing) order. *)
val iter_ands : t -> (int -> unit) -> unit

(** Logic level of every node (inputs and constant at level 0). *)
val levels : t -> int array

(** Largest logic level over the outputs. *)
val depth : t -> int

(** {1 Whole-graph operations} *)

(** [append dst src ~inputs] copies [src]'s AND structure into [dst],
    substituting [inputs.(i)] (a [dst] literal) for [src]'s input [i],
    and returns the [dst] literals corresponding to [src]'s outputs.
    Structural hashing applies, so shared structure is reused.
    @raise Invalid_argument if [inputs] has the wrong length. *)
val append : t -> t -> inputs:Lit.t array -> Lit.t array

(** [extract_cone g lits] is a fresh graph computing exactly [lits]
    (as its outputs, in order) over the same primary inputs, containing
    only the AND nodes in the transitive fanin of [lits]. *)
val extract_cone : t -> Lit.t list -> t

(** Rebuild the graph keeping only nodes reachable from the outputs;
    returns the compacted graph. *)
val cleanup : t -> t

(** Evaluate the outputs under a Boolean input assignment
    (a reference semantics used by tests and counterexample replay). *)
val eval : t -> bool array -> bool array

(** Evaluate an arbitrary literal under an input assignment. *)
val eval_lit : t -> bool array -> Lit.t -> bool

(** Structural invariant check (fanins precede nodes, hash is
    consistent); raises [Failure] describing the first violation. *)
val check : t -> unit

val pp_stats : Format.formatter -> t -> unit
