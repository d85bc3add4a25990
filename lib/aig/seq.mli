(** Sequential circuits as combinational graphs plus registers, and
    their bounded unrolling.

    A sequential circuit is represented by its {e transition
    structure}: a combinational graph whose inputs are the primary
    inputs followed by the latch outputs (current state), and whose
    outputs are the primary outputs followed by the latch inputs (next
    state).  {!unroll} expands [k] time frames into a purely
    combinational graph, turning bounded sequential equivalence into
    the combinational problem the rest of this library solves with
    proofs. *)

type t

(** [create ?init comb ~num_pis ~num_latches] wraps a transition
    structure.  [comb] must have [num_pis + num_latches] inputs and at
    least [num_latches] outputs (the last [num_latches] outputs are the
    next-state functions).  [init] gives reset values (default all
    false).
    @raise Invalid_argument on interface mismatch. *)
val create : ?init:bool array -> Graph.t -> num_pis:int -> num_latches:int -> t

val num_pis : t -> int
val num_pos : t -> int
val num_latches : t -> int
val transition : t -> Graph.t

(** [unroll t ~frames] is the combinational expansion: inputs are the
    primary inputs of frame 0, then frame 1, ...; outputs likewise the
    primary outputs per frame.  Latches start at their reset values.
    @raise Invalid_argument unless [frames >= 1]. *)
val unroll : t -> frames:int -> Graph.t

(** {1 AIGER with latches}

    The combinational {!Aiger} reader rejects latches; these functions
    accept them, using the AIGER latch convention (reset value 0).
    Reading goes through {!Aiger.of_ascii_with_latches}, so
    [Parse_error] is {!Aiger.Parse_error}. *)

exception Parse_error of string

val of_aiger_string : string -> t
val to_aiger_string : t -> string
val read_file : string -> t
val write_file : string -> t -> unit
