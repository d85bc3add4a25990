(** SAT sweeping with resolution-proof stitching — the paper's engine.

    The input is a single-output miter.  The engine simulates to guess
    candidate node equivalences, settles each candidate with two small
    assumption-based SAT calls over the candidates' fanin cones, lifts
    each refutation into an {e equivalence lemma clause} proved from
    the miter CNF, and feeds lemmas to later calls.  The final call
    refutes the miter's output unit clause; importing that refutation —
    with lemma leaves replaced by their own derivations — yields one
    resolution proof of the miter CNF whose leaves are exactly original
    clauses. *)

(** Engine mode — how SAT queries map onto solver instances. *)
type mode =
  | Perpair
      (** one query per candidate over the candidates' fanin cones,
          assumption-unit clauses, each refutation {!Proof.Lift}ed and
          imported into a global store (the flow as described in the
          paper).  Every query runs on the engine's one solver and query
          proof store, reset before it ({!Sat.Solver.reset},
          {!Proof.Resolution.clear}) to exactly the state of a new
          solver: the search is fresh, only the memory is reused.

          Cost of one query on an [N]-node miter: O(N) array-slot
          writes, no allocation, to declare every node as a solver
          variable again (each one is in the decision heap, so the
          search matches a solver loaded with the whole miter's
          variables), O(cone) to walk the cone once and add its clauses
          from a Tseitin clause table built once per engine, then the
          search and the lift and import of its refutation, which maps
          each leaf to the global proof by the table slot or lemma it
          came from. *)
  | Incremental
      (** one persistent solver per instance whose proof store {e is}
          the global proof — cone clauses loaded once on demand,
          per-query activation literals passed as native solver
          assumptions, learned clauses and variable activity carried
          across queries, lemmas installed once as derived clauses
          referenced by their global chain id; no lifting or importing
          at all.  Queries already settled by root-level facts are
          answered without a SAT call (counted by
          [sweep.incremental_reuse]).  Both modes produce the same kind
          of checkable certificate.

          Cost of one query: the cone nodes not loaded by an earlier
          query (the walk stops where the loaded part begins), then the
          search.  Declaring the [N] miter variables is paid once, when
          the engine is made. *)

val mode_to_string : mode -> string

(** Which engine settles candidate equivalences: SAT, always.  The
    one-value type and the {!config} field it fills stay so that code
    written against the older multi-engine configuration still builds
    (perfbench's service replay sets [portfolio = Sat_only]).  No code
    reads the field. *)
type portfolio = Sat_only

type config = {
  words : int;  (** random simulation words (64 patterns each) *)
  seed : int;  (** simulation seed *)
  max_conflicts : int option;  (** per-query conflict budget *)
  lemma_reuse : bool;  (** feed proved lemmas to later SAT calls *)
  mode : mode;  (** see {!mode}; default {!Perpair} *)
  portfolio : portfolio;  (** see {!portfolio}; ignored *)
}

val default_config : config

type stats = {
  mutable sat_calls : int;  (** SAT queries issued (including final) *)
  mutable cex : int;  (** queries refuted by a counterexample *)
  mutable unknowns : int;  (** queries that hit the conflict budget *)
  mutable merges : int;  (** node pairs proved equivalent *)
  mutable const_merges : int;  (** nodes proved constant *)
  mutable lemmas : int;  (** lemma clauses derived *)
  mutable conflicts : int;  (** total solver conflicts *)
  mutable reused : int;
      (** queries settled from root-level facts without a SAT call
          (incremental mode only) *)
}

type outcome =
  | Proved of {
      proof : Proof.Resolution.t;
      root : Proof.Resolution.id;
      miter : Aig.t;
          (** the miter swept, whose CNF the proof refutes: every leaf
              passes [Cnf.Tseitin.miter_mem miter] *)
      boundaries : Proof.Resolution.id array;
          (** last proof node of each refuted query's imported
              derivation, ascending — the section boundaries a hinted
              certificate ({!Proof.Binfmt.encode_hinted}) shards on *)
    }
  | Disproved of bool array  (** an input assignment setting the output *)
  | Unresolved  (** final query exhausted its budget *)

(** [run miter config] sweeps and proves.  The final SAT call runs
    without a conflict budget unless the per-query budget is set, in
    which case it applies there too.
    @raise Invalid_argument unless [miter] has exactly one output. *)
val run : Aig.t -> config -> outcome * stats

(** [fraig g config] is functional reduction: sweep an arbitrary
    (multi-output) graph and rebuild it with every proved-equivalent
    node replaced by its class representative — the classic FRAIG
    operation, with every merge justified by a SAT proof against the
    graph's own Tseitin CNF.  Returns the reduced graph (same
    interface, same functions) and the sweeping statistics. *)
val fraig : Aig.t -> config -> Aig.t * stats
