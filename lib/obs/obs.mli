(** Structured tracing and metrics for the hardening pipeline.

    A collector [t] owns one lock-free buffer per recording domain
    (reached through [Domain.DLS], created on a domain's first record,
    and freed with the collector):
    the hot path — beginning/ending a span, bumping a counter, feeding
    a histogram — touches only the calling domain's own buffer, so no
    lock is taken and no cache line is shared between workers.  The
    read side ({!counters}, {!spans}, {!to_chrome}, ...) merges every
    registered buffer.  Merging is lossless but must happen at a
    quiescent point: after a {!Engine.Pool} batch drains, the pool's
    own mutex hand-off orders all worker writes before the submitter's
    reads, so engine reports and exports are exact.

    Three instrument kinds:
    - {e spans}: nested begin/end intervals ([span] runs a thunk),
      exported as Chrome trace-event "X" slices per domain;
    - {e counters}: monotonic named integers;
    - {e histograms}: log2-bucketed value distributions (e.g. cycles
      per executed check site). *)

type t

val create : unit -> t

(** {2 Recording (hot path, lock-free per domain)} *)

val span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  Nesting is tracked per domain;
    an exception still closes the span.  [cat] groups spans for
    {!span_summary} and the Chrome export (default ["misc"]). *)

val add_span : t -> ?cat:string -> string -> start:float -> dur:float -> unit
(** Record an already-measured interval ([start] in
    [Unix.gettimeofday] seconds, [dur] in seconds). *)

val add : t -> ?n:int -> string -> unit
(** Bump a monotonic counter (default [n = 1]). *)

val observe : t -> string -> int -> unit
(** Feed one value into a log2-bucket histogram. *)

(** {2 Merged read-side views} *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;     (** recording domain id *)
  sp_start : float; (** seconds since the collector was created *)
  sp_dur : float;   (** seconds *)
  sp_depth : int;   (** nesting depth within its domain, 0 = top *)
}

type hist = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
      (** (inclusive lower bound, count) for each non-empty log2
          bucket, ascending *)
}

val counters : t -> (string * int) list
(** All counters, merged across domains, sorted by name. *)

val counter : t -> string -> int
(** One merged counter (0 when never bumped). *)

val histograms : t -> (string * hist) list

val spans : t -> span list
(** All spans, sorted by start time. *)

val span_summary : ?cat:string -> t -> (string * int * float) list
(** [(name, calls, total seconds)] aggregated over spans, sorted by
    name; [cat] restricts to one category (e.g. ["stage"]). *)

val well_formed : t -> bool
(** Every begun span has ended in every domain (no dangling nesting). *)

(** {2 Exporters} *)

val to_chrome : ?process_name:string -> t -> string
(** The collector as Chrome trace-event JSON ([{"traceEvents": ...}]),
    loadable in about:tracing / Perfetto: one complete ("X") event per
    span with the recording domain as its thread, metadata thread
    names, and one counter ("C") sample per merged counter. *)

val summary : t -> string
(** Compact text rendering: span table per category, counters,
    histogram statistics. *)

(** {2 The JSON codec}

    The one reader and writer of JSON in the program, with no external
    dependencies: every document it emits (reports, fault records,
    fuzz reports, serve responses) is built as a {!Json.v} and printed
    by {!Json.to_string}, and every document it reads (serve requests,
    [tools/bench_diff]'s reports) goes through {!Json.parse}. *)
module Json : sig
  type v =
    | Null
    | Bool of bool
    | Int of int  (** written only: {!parse} yields [Num] *)
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  val parse : string -> (v, string) result
  (** Parse a complete JSON document; the error carries an offset.
      Containers nested more than 64 deep are an error, so a hostile
      line costs the reader no more than its length. *)

  val escape : string -> string
  (** The body of a JSON string literal: quote, backslash, newline,
      carriage return and tab as two-character escapes, other control
      bytes as [\u00XX], every other byte (UTF-8 included) as is. *)

  val to_string : ?lines:int -> v -> string
  (** Print a value.  An [Int] prints as an integer; an integer-valued
      [Num] below 1e15 as [%.1f], any other [Num] as [%.6g].  Members
      are separated by [", "] and keys by [": "]; a container nested
      less than [lines] deep (default 0: the whole document on one
      line, as the serve protocol needs) puts each member on its own
      line instead, indented two spaces per level. *)

  val member : string -> v -> v option
  (** Field lookup on [Obj] (None otherwise). *)

  val to_num : v -> float option
  (** [Num], or [Int] as a float. *)

  val to_str : v -> string option
  val to_arr : v -> v list option
end
