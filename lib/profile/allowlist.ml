(** Allow-lists (paper §5, Figure 5): the set of instrumentation sites
    — instruction addresses in the original binary — that profiling
    observed to always pass the (LowFat) check, and that the production
    build may therefore harden with the full (Redzone)+(LowFat) check.

    The on-disk format is the same as RedFat's allow.lst: one hex
    address per line. *)

type t = int list

let save path (t : t) =
  let oc = open_out path in
  List.iter (fun a -> Printf.fprintf oc "%x\n" a) t;
  close_out oc

let load path : t =
  let r =
    Binfmt.Reader.create ~src:path
      (In_channel.with_open_text path In_channel.input_all)
  in
  let rec go acc =
    match Option.map String.trim (Binfmt.Reader.line r) with
    | None -> List.rev acc
    | Some "" -> go acc
    | Some a -> go (Binfmt.Reader.hex r a :: acc)
  in
  go []

let union (a : t) (b : t) : t = List.sort_uniq compare (a @ b)

(** Sites in [a] but not [b] (e.g. which sites a better test suite
    added to the allow-list). *)
let diff (a : t) (b : t) : t = List.filter (fun x -> not (List.mem x b)) a
