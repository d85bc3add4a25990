(** Top-level combinational equivalence checking.

    Two engines decide the same question — "is the miter output
    constant 0?" — and on success both deliver a {!certificate}: a
    resolution refutation of the miter CNF, independently re-checkable
    with {!Certify}.

    - [Monolithic]: one proof-logging SAT call on the whole miter CNF
      (the baseline the paper compares against).
    - [Sweeping]: the paper's engine ({!Sweep}): simulation-guided node
      merging with per-pair SAT calls and proof stitching. *)

type certificate = {
  proof : Proof.Resolution.t;
  root : Proof.Resolution.id;
  miter : Aig.t;
      (** the single-output miter whose CNF
          ({!Cnf.Tseitin.miter_formula}) the proof refutes; the proof's
          leaves are checked against it with {!Cnf.Tseitin.miter_mem},
          without building that CNF *)
  boundaries : Proof.Resolution.id array;
      (** section boundaries (last proof node of each refuted sweep
          query, ascending) for sharded hinted-certificate emission;
          empty when the prover recorded none (the monolithic engine)
          — the hinted encoder then emits a single shard *)
}

type engine =
  | Monolithic
  | Sweeping of Sweep.config

(** Parse an engine name: ["mono"]/["monolithic"], or
    ["sweep"]/["sweeping"] for SAT sweeping configured by [base]
    (default {!Sweep.default_config}). *)
val engine_of_string : ?base:Sweep.config -> string -> engine option

type verdict =
  | Equivalent of certificate
  | Inequivalent of bool array  (** distinguishing input assignment *)
  | Undecided  (** conflict budget exhausted *)

type report = {
  verdict : verdict;
  sweep_stats : Sweep.stats option;  (** present for the sweeping engine *)
  solver_conflicts : int;  (** total conflicts across all SAT calls *)
  sat_calls : int;
}

(** Check two circuits with the same interface.
    @raise Invalid_argument if interfaces differ. *)
val check : engine -> Aig.t -> Aig.t -> report

(** Check a prebuilt single-output miter. *)
val check_miter : ?max_conflicts:int -> engine -> Aig.t -> report

(** [check_supervised ?max_conflicts engine miter] is {!check_miter}
    under the fault contract of the service's escalation rounds
    ([Service.Engine]).  Two {!Fault} points fire inside it:
    [worker.crash] raises before the solve, and [engine.budget]
    replaces the solve with a budget blowout (an [Undecided] report
    charged the whole [max_conflicts]).  An attempt that raises is
    retried once, at once; a second raise is returned as
    [Error reason] ([reason] is that second exception), never
    re-raised. *)
val check_supervised : ?max_conflicts:int -> engine -> Aig.t -> (report, string) result

(** Bounded sequential equivalence: unroll both transition structures
    [frames] steps from their reset states and check the combinational
    expansions.  An [Inequivalent] witness is an input trace (frame 0's
    inputs first).
    @raise Invalid_argument if interfaces differ. *)
val check_bounded : frames:int -> engine -> Aig.Seq.t -> Aig.Seq.t -> report

(** Bounded model checking (safety): treat every primary output of
    [seq] as a bad-state flag and decide whether any can be 1 within
    [frames] steps of the reset state.  [Equivalent cert] means
    {e safe for the bound}, with a resolution certificate for the
    unrolled formula; [Inequivalent trace] is a concrete input trace
    reaching a bad state. *)
val check_bounded_safety : frames:int -> engine -> Aig.Seq.t -> report

(** Per-output checking: one verdict (and, when equivalent, one
    certificate) per output pair, each over the pair's own fanin
    cones.  Useful for diagnosing which functions of a revised netlist
    broke.
    @raise Invalid_argument if interfaces differ. *)
type output_report = {
  output : int;
  output_verdict : verdict;
}

val check_outputs : engine -> Aig.t -> Aig.t -> output_report array

(** Convenience: [equivalent a b] runs the sweeping engine with
    defaults and returns the boolean verdict.
    @raise Failure on [Undecided]. *)
val equivalent : Aig.t -> Aig.t -> bool
