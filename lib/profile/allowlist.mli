(** Allow-lists (paper §5, Figure 5): the instrumentation sites that
    profiling observed to always pass the (LowFat) check.  On-disk
    format as in RedFat's allow.lst: one hex address per line. *)

type t = int list

val save : string -> t -> unit
val load : string -> t
(** Raises {!Binfmt.Reader.Error} [Int] naming the file and line of a
    line that is not one hex address. *)

val union : t -> t -> t
val diff : t -> t -> t
(** [diff a b]: sites in [a] but not [b]. *)
