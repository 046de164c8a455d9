(** The hardening-as-a-service daemon: a stream of {!Proto} requests
    scheduled over one shared {!Engine.Pipeline} and answered from a
    three-tier artifact store —

    {v
    Lru hot tier (bounded bytes, admit-on-second-touch, single-flight)
      -> Engine.Cache memory tier (unbounded, per-stage artifacts)
        -> Engine.Cache disk tier (persistent; one append-only pack
           per engine that stores, an MD5 per record)
          -> recompute (Figure-5 workflow on the domain pool)
    v}

    A verify answer is the operand total of the audit the artifact's
    computation already ran; a trace answer is the Log-mode run of the
    artifact's hardened binary, computed on a trace miss and held in a
    second, uncounted {!Lru} under the artifact's key.  Either request
    still runs its [verify] or [run] injection point once, hit or miss.

    Per-request fault isolation comes from {!Engine.Pipeline.protect}:
    a poisoned request (unknown target, parse fault, injected fault,
    failed soundness audit, crashing run) yields one [ok:false]
    response carrying the typed fault; the daemon keeps serving.

    Instrumented end to end on the engine's {!Obs} collector:
    [serve.req.<op>]/[serve.fault]/[serve.conn] counters,
    [serve.cache.*] hot-tier counters (hits/misses/coalesced/admitted),
    a [serve.latency_us] histogram and one
    [serve.<op>] span per request (category ["serve"]). *)

type t

val create : ?mem_bytes:int -> Engine.Pipeline.t -> t
(** [mem_bytes] (default 64 MiB): hot-tier capacity; the trace records'
    tier is bounded at [mem_bytes / 64].  The server
    records into the engine's collector and honours its injection
    harness (the canonical spec is part of every hot-tier key). *)

val engine : t -> Engine.Pipeline.t
val lru : t -> Lru.t

val stop_requested : t -> bool

val request_stop : t -> unit
(** Ask the accept loop to stop (signal handlers, Shutdown requests).
    Async-signal-safe (one atomic store). *)

val handle : t -> string -> string * bool
(** One request line in, [(response line, ok)] out.  Never raises on
    request data: malformed lines and faulting requests become
    [ok:false] responses. *)

val run_script : t -> lines:string list -> emit:(string -> unit) -> int
(** Batch transport ([redfat serve --script]): handle each line in
    order, [emit] each response; returns the number of failed
    requests.  Stops early if a [shutdown] request is processed. *)

val listen : t -> socket:string -> unit
(** Daemon transport: bind [socket] (an existing path is replaced),
    accept connections (one domain each, joined on exit), serve
    line-by-line until {!request_stop}.  The socket is unlinked on the
    way out, including on bind/accept exceptions. *)

val send : socket:string -> lines:string list -> emit:(string -> unit) -> int
(** Client: connect (retrying ~10s while the daemon starts), stream
    the request [lines], half-close, [emit] each response line until
    EOF; returns the number of not-ok responses. *)
