(** Content addressing of circuit pairs.

    The certificate store ({!Store}) is keyed by a structural hash of
    the {e normalized} (golden, revised) pair: both graphs are passed
    through {!normalize} (dead-node elimination via [Aig.cleanup], so
    unreferenced logic cannot perturb the key), serialized in the
    deterministic ASCII AIGER encoding, and digested together with a
    format-version tag.  Two requests naming structurally identical
    live logic therefore map to the same certificate, while any
    structural difference — including a different node numbering of the
    live logic — yields a different key.  This is content addressing on
    structure, not on function: functionally equal but structurally
    different pairs are distinct entries (deciding functional equality
    is the service's whole job). *)

type t

(** Bumped whenever the key derivation changes; mixed into the digest
    so stores written by older derivations can never serve a new one. *)
val format_version : int

(** Dead-node elimination ([Aig.cleanup]).  The service solves, stores
    and validates certificates against the normalized pair, so keys and
    proofs always talk about the same graphs. *)
val normalize : Aig.t -> Aig.t

(** Structural hash of the normalized pair ({!normalize} is applied
    internally; passing already-normalized graphs is idempotent).
    Keys are digests of bytes fixed since format version 1, so existing
    stores stay addressable: the tests pin one key and the AIGER bytes
    it is computed from. *)
val of_pair : Aig.t -> Aig.t -> t

(** [of_normalized a b] is [of_pair a b] for graphs already passed
    through {!normalize}, without normalizing them again: a shard
    normalizes each request's pair once and takes its key from the
    same graphs it solves and validates against.  On graphs that are
    not normalized it is a different key. *)
val of_normalized : Aig.t -> Aig.t -> t

(** Lowercase hex rendering (doubles as the on-disk object filename). *)
val to_hex : t -> string

(** Parse a hex rendering; [None] unless it is exactly a 32-character
    lowercase hex string. *)
val of_hex : string -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
