(** Signal-safe line framing over raw file descriptors.

    The daemon protocol is one JSON line per request/response.  Raw
    [Unix.read]/[Unix.write] can return early on [EINTR] (the daemon
    installs SIGINT/SIGTERM handlers) or write partially; every
    framing loop in server and client goes through these helpers so
    no byte is dropped or duplicated on a signal.

    Reads from sockets are chunked: a [MSG_PEEK] finds the newline and
    exactly the frame is consumed, so large certificate bodies cost a
    handful of syscalls instead of one per byte, and nothing belonging
    to a later read is ever swallowed.  Non-socket descriptors fall
    back to byte-at-a-time reads.

    Both directions take an optional absolute {e deadline} (a
    [Unix.gettimeofday]-clock instant).  The fd is [select]ed before
    each I/O attempt; once the instant passes, reads return
    [Error deadline_error] and writes raise
    [Unix.Unix_error (ETIMEDOUT, "write", _)].  This is what lets the
    router abort a stalled shard instead of wedging a worker slot. *)

(** The [Error] payload {!read_line} returns when its [deadline]
    passes — compare against this to distinguish a stalled peer from a
    malformed frame. *)
val deadline_error : string

(** [read_line ?max_bytes ?deadline fd] reads up to (and consuming)
    the next ['\n'], retrying on [EINTR].  [Ok line] excludes the
    newline; EOF before any byte is [Error "connection closed"]; EOF
    mid-line is [Error "connection closed mid-line"]: every writer ends
    its lines with {!write_line}, so an unterminated tail is a line cut
    off in transit, never a complete one.  Lines over [max_bytes]
    (default 65536) are [Error "request too long"].  When [deadline]
    (absolute seconds) passes before the line completes,
    [Error deadline_error].
    @raise Unix.Unix_error on I/O errors other than [EINTR]. *)
val read_line :
  ?max_bytes:int -> ?deadline:float -> Unix.file_descr -> (string, string) result

(** Write the whole string, retrying on [EINTR] and short writes.
    @raise Unix.Unix_error on other I/O errors ([EPIPE] included —
    callers decide whether a vanished peer matters), and
    [Unix.Unix_error (ETIMEDOUT, "write", _)] when [deadline] passes
    while the peer's receive window stays full. *)
val write_all : ?deadline:float -> Unix.file_descr -> string -> unit

(** [write_line fd s] is [write_all fd (s ^ "\n")]. *)
val write_line : ?deadline:float -> Unix.file_descr -> string -> unit
