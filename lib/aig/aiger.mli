(** Reading and writing combinational AIGs in the ASCII AIGER format
    ("aag", Biere 2007).  Latches are not supported: this is a
    combinational-equivalence project, and files with latches are
    rejected with {!Parse_error}.  Both the ASCII ("aag") and the
    binary ("aig") encodings are read; writing defaults to ASCII, with
    {!to_binary_string} for the binary form. *)

exception Parse_error of string

(** Render a graph.  AND fanins are emitted with [rhs0 >= rhs1] as the
    format requires. *)
val to_string : Graph.t -> string

val write_channel : out_channel -> Graph.t -> unit
val write_file : string -> Graph.t -> unit

(** Render in the compact binary format ("aig"): implicit input
    literals and varint-delta-encoded ANDs. *)
val to_binary_string : Graph.t -> string

(** The most inputs a binary header may declare: [2^20].  Binary inputs
    have no lines of their own, so unlike every other count in the
    header the file size cannot bound them, while every consumer of the
    graph allocates per node.  The binary reader also requires the
    header's outputs and ANDs to fit the bytes after it (at least two
    bytes each), so it never allocates beyond the file's size and this
    constant. *)
val max_binary_inputs : int

(** Parse an AIGER document, auto-detecting ASCII ("aag") vs binary
    ("aig") from the header.
    @raise Parse_error on malformed input or latches, and on a binary
    header declaring more than {!max_binary_inputs} inputs or more
    outputs and ANDs than the file holds. *)
val of_string : string -> Graph.t

(** [of_ascii_with_latches text] reads an ASCII ("aag") document that
    may declare latches (reset value 0 only) and returns the latch
    count with the transition graph: its inputs are the primary inputs
    followed by the latch outputs, its outputs the primary outputs
    followed by the next-state functions.  {!of_string} is the same
    reader with latches refused; {!Seq} wraps this one.
    @raise Parse_error on malformed input. *)
val of_ascii_with_latches : string -> Graph.t * int

val read_channel : in_channel -> Graph.t
val read_file : string -> Graph.t
