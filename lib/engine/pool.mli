(** A work-stealing job pool on OCaml 5 domains (stdlib only:
    [Domain]/[Mutex]/[Condition]).

    A pool owns [jobs] worker domains (spawned lazily on the first
    parallel batch).  [map] submits one batch at a time: the task
    indices are block-partitioned into per-worker deques; a worker
    pops from the front of its own deque and, when empty, steals the
    back half of the fullest other deque.  Results are written by
    task index, so the output ordering is deterministic regardless of
    the interleaving.

    [map] called from inside a worker (a nested batch) degrades to
    sequential execution in that worker — nesting never deadlocks. *)

type t

val create : jobs:int -> ?obs:Obs.t -> unit -> t
(** [jobs <= 1] never spawns domains; everything runs inline.
    [obs]: record each task's lifetime as an [Obs] span (category
    ["pool"]) in the executing worker's own buffer. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Deterministic-order parallel map.  If any task raises, the
    exception of the lowest-indexed failing task is re-raised (with
    its backtrace) after the batch drains. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Per-task isolation: a task's exception becomes its own [Error]
    slot (in deterministic input order) and every other task still
    runs — the batch is never cancelled.  Used by the fault-tolerant
    pipeline to build per-target fault records. *)

val close : t -> unit
(** Join all worker domains.  Idempotent; the pool is unusable for
    parallel batches afterwards (maps fall back to sequential).  Also
    registered [at_exit] by the first batch that spawns the domains. *)
