(** A CDCL SAT solver with resolution-proof logging.

    The solver is MiniSat-shaped — two-watched-literal propagation,
    VSIDS decision order with phase saving, first-UIP clause learning
    with self-subsumption minimization, Luby restarts — and, on top,
    logs every learned clause as a trivial-resolution chain in a
    {!Proof.Resolution} store, so an unsatisfiable run ends with a
    checkable derivation of the empty clause whose leaves are the added
    clauses.

    Clauses marked [~assumption:true] become assumption leaves in the
    proof; {!Proof.Lift} can then rewrite the refutation into a
    derivation of the negated assumptions from the other clauses alone.
    Learned clauses may be deleted from the {e solver} under memory
    pressure, but never from the {e proof store}, so every logged chain
    stays permanently valid.

    Clauses live in one arena, MiniSat 2.2's layout: every clause's
    literals in one flat [int] array, and one [int] or [float] array
    per clause field (start, size, proof node, learned and deleted
    flags, activity).  Adding a clause copies its literals there and
    allocates nothing once the arena has grown; a deleted learned
    clause keeps its place until {!reset} truncates the arena.
    Conflict analysis builds its learned clause and resolution chain in
    vectors the solver owns, and the decision heap reads the activity
    array directly. *)

type t

type result =
  | Sat of bool array  (** model indexed by variable *)
  | Unsat of Proof.Resolution.id  (** root of the refutation in [proof t] *)
  | Unsat_assuming of {
      clause : Cnf.Clause.t;  (** a derived clause over negated assumptions *)
      pid : Proof.Resolution.id;  (** its derivation in [proof t] *)
    }  (** only when [solve] was given assumptions *)
  | Unknown  (** conflict budget exhausted *)

(** [create ()] has no variables and an empty internal proof store;
    pass [~proof] to log into an existing store.  [reduce_base]
    (default 4000) is the live-learned-clause count that triggers the
    first activity-based clause-database reduction; deletions never
    touch the proof store, so logged chains stay valid. *)
val create : ?proof:Proof.Resolution.t -> ?reduce_base:int -> unit -> t

val proof : t -> Proof.Resolution.t

(** Number of nodes currently in the proof store — a cheap monotone
    marker.  Sampling it right after a refuted query yields the section
    boundaries {!Proof.Binfmt.encode_hinted} shards a hinted
    certificate on. *)
val proof_size : t -> int

(** Proof ids of learned chains the solver has retired from its clause
    database, in retirement order.  A retired chain is never an
    antecedent of any chain learned later, so these are deletion hints
    for a streaming certificate encoder ({!Proof.Binfmt} computes exact
    last-use positions offline and does not need them, but an online
    emitter has nothing else to go on).  Counted by the ambient-registry
    counter [sat.retired_chains]. *)
val trim_hints : t -> Proof.Resolution.id array

(** Allocate one fresh variable; returns its index. *)
val new_var : t -> int

(** Make variables [0 .. n-1] exist.  Declaring a variable costs its
    per-variable array slots only (each array grows at most once per
    call); a literal's watch list is created when a clause first
    watches it. *)
val ensure_vars : t -> int -> unit

(** [reset t] returns [t] to the state of [create ~proof:(proof t)]
    with [t]'s [reduce_base], without allocating: the per-variable
    arrays keep their capacity and are refilled, watch lists are
    emptied but kept, the decision heap is emptied and rebuilt as a new
    solver's would be, the clause arena is truncated (the next clauses,
    original or learned, overwrite the space of the old ones, deleted
    learned clauses included) and every counter is dropped, so the
    same calls then give the same search, counters and proof nodes as
    on a new solver.  The proof store is left alone (clear it with
    {!Proof.Resolution.clear}), and the ambient-registry handles stay
    those resolved at [create]. *)
val reset : t -> unit

(** Length of the one watch list shared by every literal that no clause
    has watched yet, across all solvers.  Nothing writes to it, so this
    is always [0]. *)
val shared_watch_list_size : unit -> int

(** Whether the conflict-analysis scratch (one flag per variable,
    shared by learning, final-conflict analysis and root-level
    refutation) is all clear, as it must be between calls.  For tests. *)
val scratch_clear : t -> bool

val num_vars : t -> int

(** Add a clause; creates its proof leaf.  Adding the empty clause (or
    clashing units) makes the solver permanently unsatisfiable.
    Clauses may be added between [solve] calls (incremental use). *)
val add_clause : ?assumption:bool -> t -> Cnf.Clause.t -> unit

(** [add_derived_clause t c pid] adds a clause whose proof node already
    exists in [proof t] at [pid] — a proved lemma, or a leaf the caller
    appended itself.  No node is created, so proofs using the clause
    stitch through [pid]. *)
val add_derived_clause : t -> Cnf.Clause.t -> Proof.Resolution.id -> unit

(** Add every clause of a formula (none marked as assumptions), and
    make all its variables exist. *)
val add_formula : t -> Cnf.Formula.t -> unit

(** Solve the current clause set, optionally under assumption
    literals.  When the assumptions are inconsistent with the clauses,
    the result is [Unsat_assuming] carrying a {e proved} clause over
    the negated assumptions (the equivalence-lemma mechanism of the
    sweeping engine).  A self-contradictory assumption list (both
    polarities of one variable) also answers [Unsat_assuming], with the
    trivial final clause [~l] for the later of the clashing pair; since
    no such clause is derivable from the clauses alone, its [pid] is an
    assumption leaf and must not be reused as a derived lemma.
    [max_conflicts] bounds the search ([Unknown] when exceeded);
    default is unbounded.

    Each call adds the number of live learned clauses carried over from
    previous calls to the ambient counter [sat.clauses_carried]. *)
val solve : ?max_conflicts:int -> ?assumptions:Aig.Lit.t list -> t -> result

(** {1 Root-level facts}

    Facts fixed at decision level 0 accumulate across incremental
    [solve] calls; an incremental client can often settle a query from
    them without searching. *)

(** Run unit propagation to fixpoint at the root level, making facts
    implied by recently added clauses visible to {!root_lit_value} and
    {!derive_fixed} without a full [solve].  A root-level conflict
    makes the solver permanently unsatisfiable (subsequent [solve]
    calls answer [Unsat]). *)
val propagate_root : t -> unit

(** Truth value of [l] under the root-level assignment only: [1] true,
    [0] false, [-1] not fixed at the root. *)
val root_lit_value : t -> Aig.Lit.t -> int

(** When [l] is true at the root level, return the unit clause [(l)]
    together with a derivation of it in [proof t], built by resolving
    the reason chain of [l]'s assignment (memoized per variable).
    [None] when [l] is not a root-level fact. *)
val derive_fixed : t -> Aig.Lit.t -> (Cnf.Clause.t * Proof.Resolution.id) option

(** {1 Statistics} *)

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
val num_learned : t -> int
val num_restarts : t -> int
