(** Unified observability for the whole CEC pipeline.

    One dependency-free subsystem of counters, gauges, fixed-bucket
    histograms and hierarchical timed spans, shared by the SAT solver,
    the sweeping engine, the proof layers, the certificate checkers and
    the certification service.

    {2 Domain safety}

    A {!Registry.t} is deliberately {e not} synchronized: each worker
    domain records into its own registry at plain-field-mutation cost,
    and the registries are {!Registry.merge_into}d after the workers
    are joined ([serve --workers N] keeps one registry per worker for
    the daemon's lifetime and merges them at shutdown).  Merging
    counters and histograms is associative and commutative, so the
    aggregate is independent of the merge order.

    {2 The ambient registry}

    Instrumented code does not thread a registry through every call; it
    records into the {e ambient} registry of its domain
    (domain-local state, see {!ambient} / {!with_ambient}).  A fresh
    domain starts with a throwaway registry, so instrumentation is
    always safe to run; a caller that wants the numbers installs its
    own registry around the work and exports it afterwards. *)

(** {1 Clock} *)

module Clock : sig
  (** Wall-clock seconds used by spans and timers.  The default is
      [Sys.time] (processor time — dependency-free); executables that
      link [unix] should install [Unix.gettimeofday] at startup for
      real timelines.  Tests may install a fake clock to make timing
      deterministic. *)

  val now : unit -> float

  (** Install a clock; returns by {!set}ting again. *)
  val set : (unit -> float) -> unit
end

(** {1 Instruments} *)

module Counter : sig
  (** A monotonically increasing integer.  Merging adds. *)

  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  (** A last-write-wins float (byte counts, high-water marks,
      wall-clock totals).  Merging keeps the maximum, so gauges are
      deterministic only when every domain agrees on the value. *)

  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val get : t -> float
end

module Histogram : sig
  (** A fixed-bound bucket histogram with exact count, sum and max.
      Bucket [i] counts observations [<= bounds.(i)]; one overflow
      bucket counts the rest.  Merging adds bucket-wise and requires
      identical bounds. *)

  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val max_value : t -> float

  (** Bucket upper bounds (a copy). *)
  val bounds : t -> float array

  (** Per-bucket counts, length [Array.length (bounds h) + 1] (a copy). *)
  val buckets : t -> int array

  (** 1, 2, 5 decades from 1 to 100k — suits both milliseconds and
      clause sizes. *)
  val default_bounds : float array
end

(** {1 Registry} *)

module Registry : sig
  type t

  val create : unit -> t

  (** Find-or-create by name.  Returned handles are plain mutable
      records: hold them across a hot loop instead of re-resolving. *)

  val counter : t -> string -> Counter.t

  val gauge : t -> string -> Gauge.t

  (** @raise Invalid_argument when [name] exists with other bounds. *)
  val histogram : ?bounds:float array -> t -> string -> Histogram.t

  (** [merge_into ~into src] folds [src] into [into]: counters add,
      gauges keep the maximum, histograms add bucket-wise, span events
      are appended ([src] after [into], preserving each side's order).
      [src] is unchanged.  Counter and histogram merging is
      associative and commutative with {!create} as identity.
      @raise Invalid_argument on histogram bound mismatch. *)
  val merge_into : into:t -> t -> unit

  (** Sorted [(name, value)] views, for tests and ad-hoc reporting. *)

  val counters : t -> (string * int) list

  val gauges : t -> (string * float) list
end

(** {1 Spans} *)

module Span : sig
  (** Hierarchical timed spans.  [with_ reg name f] records a begin
      event, runs [f], and records the matching end event even when
      [f] raises — so the event sequence of one registry is always
      well-parenthesized.  Events carry the recording domain's id, so
      merged timelines keep one well-nested track per domain.

      Span events stay in their registry until it is exported; nothing
      bounds or drops them.  Code on a request path must therefore not
      record spans into a registry that lives as long as a worker (a
      [serve] worker's ambient registry does): each request would grow
      it for good.  Per-request spans need a bounded sink first. *)

  val with_ : Registry.t -> string -> (unit -> 'a) -> 'a

  (** The number of recorded begin/end events (tests). *)
  val num_events : Registry.t -> int
end

(** {1 Ambient registry} *)

(** The current domain's ambient registry. *)
val ambient : unit -> Registry.t

(** [with_ambient reg f] makes [reg] ambient on this domain for the
    duration of [f] (restored afterwards, even on exceptions). *)
val with_ambient : Registry.t -> (unit -> 'a) -> 'a

(** {1 Exporters} *)

module Export : sig
  (** Flat JSON with a stable shape and sorted keys:
      [{"counters":{..},"gauges":{..},"histograms":{..}}].  Counters
      are deterministic for deterministic workloads; gauges and
      latency-valued histograms are wall-clock dependent. *)
  val stats_json : Registry.t -> string

  (** Only the counters object, sorted — the byte-comparable
      determinism surface. *)
  val counters_json : Registry.t -> string

  (** Chrome [trace_event] JSON (load in chrome://tracing or
      {{:https://ui.perfetto.dev}Perfetto}): one "B"/"E" duration
      event per span boundary, microsecond timestamps rebased to the
      earliest event, one track (tid) per recording domain. *)
  val trace_json : Registry.t -> string
end
