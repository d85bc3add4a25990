(** BDD-based combinational equivalence checking — the pre-SAT
    baseline.  Builds both circuits' output BDDs in one manager;
    canonicity makes each output comparison a node-id check.  No proof
    is produced (canonicity {e is} the argument), which is precisely
    the gap the resolution-proof engines close; the benchmark harness
    uses this engine to reproduce the classic blow-up-on-multipliers
    comparison. *)

type verdict =
  | Equivalent
  | Inequivalent of bool array  (** distinguishing input assignment *)
  | Blowup  (** the node limit was hit before an answer *)

type report = {
  verdict : verdict;
  bdd_nodes : int;  (** nodes allocated when finishing (or at the cap) *)
}

(** Static variable order: inputs in first-visit order of a depth-first
    traversal from the outputs (of both circuits).  On chained
    datapaths this interleaves the operands, which is the difference
    between linear and exponential adder BDDs. *)
val dfs_order : Aig.t -> Aig.t -> int array

(** [check ?max_nodes a b] compares all output pairs, using
    {!dfs_order} for the variable order.
    @raise Invalid_argument if interfaces differ. *)
val check : ?max_nodes:int -> Aig.t -> Aig.t -> report
