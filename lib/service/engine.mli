(** The service's decision procedure: one incremental sweep of the
    whole miter per round, with the conflict budget escalated
    geometrically between rounds and a per-request deadline checked at
    every round boundary.

    The miter is built once per solve; each round is one
    {!Cec_core.Cec.check_supervised} call on it.  Keeping the rounds
    out here (instead of handing the engine one large budget) is what
    makes deadlines enforceable: an expired deadline between rounds
    aborts with a timeout instead of burning the remaining budget.  A
    later round starts its sweep over; budgets grow geometrically, so
    the waste is bounded by a constant factor.

    With [budget = None] the single round runs unbudgeted — it always
    decides, but a deadline can then only be enforced before it
    starts.  Every executed round adds one to the ambient {!Obs}
    counter [engine.rounds]. *)

type config = {
  jobs : int;
      (** ignored; no code reads it.  The field stays only because
          perfbench's service replay still sets [jobs = 1]; it goes
          with the next change to that benchmark.  Parallelism across
          requests comes from the daemon's worker domains and the
          fleet's shards. *)
  engine : Cec_core.Cec.engine;  (** whole-miter decision engine *)
  budget : int option;
      (** initial conflict budget; [None] = one unbudgeted round *)
  escalation : int;  (** budget multiplier between rounds (min 2) *)
  max_rounds : int;  (** budgeted rounds before giving up (min 1) *)
}

(** Incremental sweeping, 50k initial conflicts, 4x escalation over at
    most 4 rounds. *)
val default_config : config

type result = {
  verdict : Cec_core.Cec.verdict;
  conflicts : int;  (** total across all rounds *)
  sat_calls : int;
  rounds : int;  (** rounds actually executed *)
  timed_out : bool;  (** [Undecided] because the deadline expired *)
  degraded : string option;
      (** [Some reason] when a round's solve raised on its attempt and
          on its one retry (see {!Cec_core.Cec.check_supervised}); the
          verdict is then an uncertified [Undecided] and no further
          round runs.  A single crash that the retry recovered from is
          not reported. *)
}

(** [solve ?clock ?deadline config golden revised] decides the pair.
    [deadline] is an absolute instant on [clock] (default
    [Unix.gettimeofday]); when it has passed before any round starts,
    the result is an immediate [Undecided] with [timed_out = true] and
    no work done.  Tests inject a fake [clock] to make deadline
    behaviour deterministic.
    @raise Invalid_argument if the interfaces differ. *)
val solve : ?clock:(unit -> float) -> ?deadline:float -> config -> Aig.t -> Aig.t -> result
