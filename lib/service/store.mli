(** A content-addressed, persistent certificate store.

    Decided verdicts are kept on disk keyed by {!Key.t} (the structural
    hash of the normalized pair), so repeated requests for the same
    pair are answered without solving — across requests, connections
    and process restarts.

    {2 On-disk layout}

    {v
    DIR/index              entry list: "cecproof-index <version>" then
                           one "<hex> <bytes> <stamp>" line per entry
    DIR/objects/<hex>      one certificate per entry:
                             cecproof-cert <version>
                             equivalent bin3 | bin | trace  |  inequivalent <bits>
                             <CECB bytes...> | <ascii trace...>  |
    v}

    Equivalent entries persist the verdict plus the {e trimmed}
    refutation — by default as a {e hinted} {!Proof.Binfmt} binary
    certificate ([bin3]: pivot hints and the prover's partition
    boundaries as a shard table, re-validated search-free and in
    parallel by {!Proof.Hint_check}), as the un-hinted binary format
    with [~cert_format:Bin], or as the dense ASCII trace
    ({!Proof.Export.trace_to_string}) with
    [~cert_format:Trace].  Inequivalent entries persist the
    distinguishing input assignment; undecided verdicts are never
    stored (a later, bigger budget may settle them).  Every file is
    written to a temporary name in the same directory and renamed into
    place, so readers never observe a half-written entry and a crash
    cannot corrupt an existing one.

    Version-1 objects (header [cecproof-cert 1], bare [equivalent]
    verdict line, ASCII trace body) and version-2 objects ([bin] or
    [trace] bodies) remain readable: an old store directory keeps
    answering hits, its old index is transparently rebuilt by scanning
    [objects/], and entries are rewritten in the current format only
    when stored again.  Entries carrying any
    {e other} version are treated as misses and dropped, so a cached
    store directory (e.g. restored by a CI cache) written by an unknown
    format can never poison a run.  A missing or unreadable index is
    likewise rebuilt by scanning [objects/].

    {2 Eviction}

    When a byte capacity is configured, each insertion is followed by
    an eviction pass dropping least-recently-used entries (access
    order, persisted via the index stamps) until the store fits.  A
    hit updates its stamp in memory; the stamp reaches the index at
    the next index write or {!flush}, so a crash can leave the
    persisted access order stale, never a verdict wrong.

    {2 Paranoid mode}

    A loaded certificate is untrusted input: the file may have rotted,
    been truncated, or been written by an adversary.  In paranoid mode
    (the default) a loaded equivalent entry is re-validated against the
    requested pair before being served — ASCII traces with
    {!Cec_core.Certify.validate_against}, un-hinted binary bodies with
    the bounded-memory {!Proof.Stream_check}, hinted ([bin3]) bodies
    with the search-free {!Proof.Hint_check}, each against the pair's
    miter CNF — and a loaded counterexample is replayed through the
    miter.
    Anything that fails is deleted and reported as a miss, so the
    caller falls back to solving.  Disabling paranoia skips the
    pair-specific checks (fast path for trusted local stores) but keeps
    the structural pass {!fsck} runs over every proof body, so a torn
    object is still a miss.

    All operations are serialized by an internal mutex and safe to call
    from multiple domains. *)

type t

(** Body format for {e newly stored} equivalent certificates ([Bin3]
    is the default: hinted, checked search-free by {!Proof.Hint_check}
    on load; [Bin] is the un-hinted binary format checked by
    {!Proof.Stream_check}; [Trace] the dense ASCII trace).  Reading
    understands all three, plus legacy version-1 objects, regardless
    of this choice. *)
type cert_format = Trace | Bin | Bin3

type stats = {
  entries : int;
  bytes : int;  (** certificate bytes currently on disk *)
  hits : int;
  misses : int;  (** includes corrupt entries dropped on load *)
  stores : int;
  evictions : int;
  corrupt : int;  (** entries rejected at load time and deleted *)
  write_failures : int;
      (** object writes that failed (I/O error or injected fault); the
          verdict was served uncached *)
}

(** Version stamp of the index and certificate file formats. *)
val format_version : int

(** Open (creating directories as needed) a store rooted at [dir].
    [capacity_bytes] bounds the total certificate bytes (unbounded when
    omitted); [paranoid] defaults to [true]; [cert_format] (default
    [Bin3]) picks the body format for newly stored certificates;
    [startup_fsck] (default [true]) runs {!fsck} before the store
    serves, so a crashed predecessor's debris never reaches readers. *)
val create :
  ?capacity_bytes:int ->
  ?paranoid:bool ->
  ?cert_format:cert_format ->
  ?startup_fsck:bool ->
  dir:string ->
  unit ->
  t

val dir : t -> string
val paranoid : t -> bool

(** Path of the certificate file an entry for [key] lives at (whether
    or not it currently exists). *)
val entry_path : t -> Key.t -> string

(** Index membership (no file access, no validation). *)
val mem : t -> Key.t -> bool

(** What a hit answers without its certificate. *)
type hit = Equivalent | Inequivalent of bool array

(** [lookup t key ~golden ~revised] is the verdict-only read that
    serves [check] requests.  It loads the stored verdict for [key] and
    runs the same check as {!find} — in paranoid mode the body's own
    checker against the pair's miter CNF, otherwise one structural
    pass — but it never rebuilds the proof DAG.  [golden] and [revised] must be the
    normalized pair the key was derived from.  Returns [None] — after
    deleting the entry — when the entry is absent, unparsable,
    version-mismatched, or fails its check.  A hit moves the entry's
    LRU stamp in memory only; see {!flush}. *)
val lookup : t -> Key.t -> golden:Aig.t -> revised:Aig.t -> hit option

(** [find t key ~golden ~revised] is {!lookup} plus the certificate:
    on an equivalent hit it also decodes the checked body into a
    resolution DAG ({!Proof.Binfmt.decode}, or the parsed trace for
    legacy bodies), for callers that re-check or re-encode it. *)
val find : t -> Key.t -> golden:Aig.t -> revised:Aig.t -> Cec_core.Cec.verdict option

(** Persist a verdict (atomically); undecided verdicts are ignored.
    Runs the eviction pass when a capacity is configured. *)
val store : t -> Key.t -> Cec_core.Cec.verdict -> unit

(** Persist the index now.  Stores, drops, evictions and {!fsck}
    write the index too; hits do not, so the LRU stamps they move
    reach disk at the next of those writes or here.  [serve] and
    [batch] flush on exit. *)
val flush : t -> unit

val stats : t -> stats

(** Flat JSON fields (mergeable with {!Metrics.fields}). *)
val fields : stats -> (string * Protocol.json) list

val pp_stats : Format.formatter -> stats -> unit

(** {2 Crash recovery}

    A crash (or an injected {!Fault} mid-write) can leave three kinds
    of debris: orphaned [.tmp-*.part] files, truncated or garbage
    objects, and index/object disagreements.  {!fsck} sweeps all
    three: tmp files and structurally invalid objects are moved to
    [DIR/quarantine] (never deleted — evidence survives for forensics;
    deletion is the fallback only if the move itself fails), valid
    objects missing from the index are re-adopted so warm hits keep
    serving, and index entries without an object are dropped.  Proof
    bodies are re-validated by their own checker in structural mode
    ({!Proof.Hint_check} for [bin3], {!Proof.Stream_check} for [bin],
    {!Proof.Checker} for traces: every chain re-resolves and the root
    is empty; the pair-specific leaf check still happens at read time
    in paranoid mode).  Runs by default when a store is opened. *)

type fsck_report = {
  scanned : int;  (** object files examined *)
  valid : int;  (** objects that passed structural validation *)
  orphan_tmp : int;  (** leftover [.tmp-*.part] files quarantined *)
  quarantined : int;  (** total files moved to quarantine (incl. tmp) *)
  adopted : int;  (** valid objects re-added to a forgetful index *)
  dropped : int;  (** index entries whose object was missing *)
}

(** Sweep the store directory into a consistent state (see above). *)
val fsck : t -> fsck_report

(** Where quarantined files go: [DIR/quarantine]. *)
val quarantine_dir : t -> string

val pp_fsck : Format.formatter -> fsck_report -> unit
