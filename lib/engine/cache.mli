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
    mutable state between worker domains.

    {b The disk tier} is a directory of append-only packs.  A cache
    that stores creates one pack ([<pid>-<n>.pack]) and appends each
    artifact to it as one record — key, blob length, MD5 of the blob,
    blob — in one [write], indexing it as it goes.  A lookup the index
    cannot answer picks up the packs other caches and processes have
    created or grown since, reading record headers only; the one record
    served is read whole and must pass its MD5.  Records are never
    rewritten: a record found damaged is marked dead in place, counted
    [corrupt] and recomputed.  A pack unlinked under a live cache (its
    directory removed, or merged away by another cache) is noticed
    before the next append, which starts a new pack. *)

type stats = {
  mutable hits : int;       (** total hits, [hits_mem + hits_disk] *)
  mutable hits_mem : int;   (** served by the in-memory table (no IO) *)
  mutable hits_disk : int;  (** read from the disk tier (and promoted) *)
  mutable misses : int;
  mutable stores : int;   (** records appended to the disk tier *)
  mutable stale : int;
      (** files of an older on-disk format, each removed once *)
  mutable corrupt : int;
      (** damaged records or files (garbage header, MD5 mismatch,
          unmarshal failure) *)
  mutable retries : int;  (** disk writes that failed even after a retry *)
}

type t

val create :
  ?enabled:bool -> ?dir:string -> ?notify:(string -> unit) -> ?obs:Obs.t ->
  unit -> t
(** [dir]: enable the disk tier in that directory (created on the
    first store).  Opening it removes the files of the older
    one-file-per-artifact format ([*.art], each one [stale]) and, when
    it holds more than 16 packs, first merges them into this cache's
    own pack — copying each live record whose MD5 checks, once per
    key — and deletes them.  [enabled = false] turns the cache into a
    pass-through
    that touches no stats and calls no [notify]: {!find_opt} answers
    [None], {!put} stores nothing and {!memo} always computes.
    [notify]: called with
    ["hit.mem"], ["hit.disk"], ["miss"], ["store"], ["stale"],
    ["corrupt"], or ["store-failed"] per outcome (outside the
    cache lock, from the calling domain — e.g. to bump lock-free [Obs]
    counters).  [obs]: record a span (category ["engine"]) for each
    cost of a lookup or store: [cache.mem] (the memory table),
    [cache.disk] (index, pack headers, the record read and its MD5),
    [cache.unmarshal], and [cache.append] (marshal and append). *)

val close : t -> unit
(** Close this cache's pack descriptor (a later store opens a new
    pack).  A dropped cache is closed by the GC. *)

val enabled : t -> bool
val stats : t -> stats

val key : kind:string -> string list -> string
(** [key ~kind parts] — a stable cache key: [kind] plus the hex digest
    of all [parts].  The kind is part of the key, so artifacts of
    different types can never alias. *)

val find_opt : t -> key:string -> 'a option
(** Tiered lookup (memory, then disk with promotion) without
    computing: [None] counts as a miss.  Damaged records are handled
    exactly as under {!memo}.  Always [None] when
    the cache is disabled.  The caller is responsible for pairing a
    [None] with an eventual {!put} of the same type — the multi-key
    protocols (the function-granular harden manifest and its per-part
    artifacts) need lookup and store as separate steps. *)

val put : t -> key:string -> 'a -> unit
(** Store an artifact in both tiers (no-op when disabled).  Same
    write discipline and degradation as {!memo}'s store. *)

val memo : t -> key:string -> (unit -> 'a) -> 'a
(** [memo t ~key compute]: return the cached artifact for [key], or
    run [compute], store the result in both tiers, and return it.
    Thread-safe; [compute] runs outside the lock (two workers racing
    on the same key may both compute — harmless, as artifacts are
    deterministic functions of the key).

    Fault-tolerant against a damaged disk tier: a record whose blob
    does not match its MD5 or fails to unmarshal, or a pack whose
    header is garbage, is counted [corrupt] and never served; the
    record is marked dead (a garbage header cuts the pack back to it)
    and the artifact recomputed (self-healing).  A record cut short at
    the end of a pack reads as still being written: it is never
    indexed, so only that artifact misses.  A write appends one record
    to this cache's pack; a failed write abandons the pack (it may end
    in a torn record) and retries once in a new one, and a write that
    still fails counts in [retries], not [stores], and degrades that
    key to the memory tier instead of failing the stage.  [memo]
    itself therefore never raises on cache damage — only [compute]'s
    own exceptions escape. *)
