(** The shared target-name registry: one resolver for every surface
    that accepts a workload name (the CLI's batch verbs, the serving
    daemon's request [target] field, the traffic-simulation bench).

    A target is either a built-in workload name ([spec:mcf], [cve:...],
    [kraken:...], [uaf:...], [bug:...], [chrome], [synth:<seed>]) or a
    MiniC source path ([examples/victim.mc]).  An unknown name raises the
    typed [input.target] fault ({!Engine.Fault.Input}), so resolution
    composes with {!Engine.Pipeline.protect} per-request isolation. *)

val workload_names : unit -> string list
(** Every built-in workload name, [redfat list] order. *)

val find_workload : string -> Binfmt.Relf.t * int list
(** Resolve to a compiled binary plus its reference inputs ([redfat
    workload]; [uaf:]/[cve:] report their attack inputs). *)

val find_program : string -> Minic.Ast.program * int list list * int list
(** Resolve to (program, training suite, reference inputs) — the
    staged-workflow entry point; also accepts [.mc] paths. *)
