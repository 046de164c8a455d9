(** Content-hash-keyed artifact cache for pipeline stages.

    Artifacts (compiled MiniC binaries, hardened rewrites, allow-lists)
    are keyed by a [Digest] over their full input content — RELF bytes
    plus rewriter options, marshalled program ASTs, input scripts — so
    a key collision implies identical inputs and therefore an identical
    (deterministic) artifact.

    Two tiers: a mutex-guarded in-memory table, and an optional on-disk
    directory so repeated bench/CLI invocations start warm.  Values are
    stored as [Marshal] blobs (closure-free by construction) and every
    hit unmarshals a fresh copy, so cached artifacts are never shared
    mutable state between worker domains. *)

type stats = {
  mutable hits : int;       (** total hits, [hits_mem + hits_disk] *)
  mutable hits_mem : int;   (** served by the in-memory table (no IO) *)
  mutable hits_disk : int;  (** read from the disk tier (and promoted) *)
  mutable misses : int;
  mutable stores : int;   (** artifacts written to the disk tier *)
  mutable stale : int;    (** artifacts rejected for an old format magic *)
  mutable corrupt : int;  (** artifacts unreadable (bad header/digest/unmarshal) *)
  mutable retries : int;  (** disk writes that failed even after a retry *)
}

type t

val create :
  ?enabled:bool -> ?dir:string -> ?notify:(string -> unit) -> unit -> t
(** [dir]: enable the disk tier in that directory (created on
    demand).  [enabled = false] turns the cache into a pass-through
    that touches no stats and calls no [notify]: {!find_opt} answers
    [None], {!put} stores nothing and {!memo} always computes.
    [notify]: called with
    ["hit.mem"], ["hit.disk"], ["miss"], ["store"], ["stale"],
    ["corrupt"], or ["store-failed"] per lookup outcome (outside the
    cache lock, from the calling domain — e.g. to bump lock-free [Obs]
    counters). *)

val enabled : t -> bool
val stats : t -> stats

val key : kind:string -> string list -> string
(** [key ~kind parts] — a stable cache key: [kind] plus the hex digest
    of all [parts].  The kind is part of the key, so artifacts of
    different types can never alias. *)

val find_opt : t -> key:string -> 'a option
(** Tiered lookup (memory, then disk with promotion) without
    computing: [None] counts as a miss.  Stale/corrupt artifacts are
    deleted and reported exactly as under {!memo}.  Always [None] when
    the cache is disabled.  The caller is responsible for pairing a
    [None] with an eventual {!put} of the same type — the multi-key
    protocols (the function-granular harden manifest and its per-part
    artifacts) need lookup and store as separate steps. *)

val put : t -> key:string -> 'a -> unit
(** Store an artifact in both tiers (no-op when disabled).  Same
    atomic-write discipline and degradation as {!memo}'s store. *)

val memo : t -> key:string -> (unit -> 'a) -> 'a
(** [memo t ~key compute]: return the cached artifact for [key], or
    run [compute], store the result in both tiers, and return it.
    Thread-safe; [compute] runs outside the lock (two workers racing
    on the same key may both compute — harmless, as artifacts are
    deterministic functions of the key).

    Fault-tolerant against a damaged disk tier: an artifact carrying
    an older format magic ([stale]), or an unreadable header or a blob
    that does not match the MD5 in its header ([corrupt]), is deleted
    and recomputed (self-healing); disk writes
    are atomic (tmp file + rename) with one bounded retry, and a write
    that still fails degrades that key to the memory tier instead of
    failing the stage.  [memo] itself therefore never raises on cache
    damage — only [compute]'s own exceptions escape. *)
