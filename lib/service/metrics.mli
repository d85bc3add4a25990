(** Request-level counters and latency aggregates for the
    certification service, recorded into an {!Obs.Registry.t} so the
    service shares the observability pipeline (stats/trace exporters)
    with the rest of the tree.  Store-level counters (hits, evictions,
    bytes) live in {!Store.stats}; the server merges both into one
    [stats] response.  All operations are thread-safe (one mutex), so
    worker domains and the accept loop can record concurrently. *)

type outcome =
  | Proved  (** equivalent, certificate produced or served *)
  | Counterexample
  | Undecided  (** conflict budget exhausted after every round *)
  | Timeout  (** per-request deadline expired *)
  | Uncertified
      (** degraded: the solve crashed on its attempt and its retry —
          answered honestly instead of claiming a result *)

type latency = {
  count : int;
  total_ms : float;
  max_ms : float;
}

type snapshot = {
  requests : int;  (** every request line received, of any kind *)
  proved : int;
  counterexamples : int;
  undecided : int;
  timeouts : int;
  hits : int;  (** check requests answered from the store *)
  misses : int;  (** check requests that went to the solver *)
  uncertified : int;
  cancelled : int;  (** deadline expired while still queued *)
  rejected : int;  (** bounced by a full request queue *)
  errors : int;  (** unreadable netlists, bad requests, solver errors *)
  retried : int;  (** jobs re-enqueued after a worker crash *)
  worker_restarts : int;  (** worker loops restarted by the supervisor *)
  hit_latency : latency;  (** end-to-end latency of store hits *)
  solve_latency : latency;  (** end-to-end latency of solved requests *)
}

type t

val create : unit -> t

(** Record into an existing registry ([service.*] counters and
    histograms), e.g. the one the server exports via [--stats-out]. *)
val of_registry : Obs.Registry.t -> t

(** The backing registry (for the exporters). *)
val registry : t -> Obs.Registry.t

(** Fold the live counters into [into] under the metrics lock — the
    safe way to snapshot the registry while workers are recording
    (used by the daemon's [metrics] wire request). *)
val merge_registry_into : t -> into:Obs.Registry.t -> unit

val incr_requests : t -> unit

(** Record a completed check request: its outcome, whether it was
    served from the store, and its end-to-end latency. *)
val record : t -> outcome -> cached:bool -> ms:float -> unit

val record_cancelled : t -> unit
val record_retry : t -> unit
val record_worker_restart : t -> unit
val record_rejected : t -> unit
val record_error : t -> unit
val snapshot : t -> snapshot

(** Flat JSON fields (mergeable with {!Store.fields}). *)
val fields : snapshot -> (string * Protocol.json) list

val to_json : snapshot -> string
val pp : Format.formatter -> snapshot -> unit
