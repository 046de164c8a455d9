(* Function-granular sharding; see shard.mli for the equivalence
   contract. *)

type slice = {
  sl_addr : int;
  sl_len : int;
  sl_bytes : string;
  sl_digest : string;
}

let slice_of (text : Binfmt.Relf.section) addr len =
  let bytes = String.sub text.bytes (addr - text.addr) len in
  {
    sl_addr = addr;
    sl_len = len;
    sl_bytes = bytes;
    sl_digest = Digest.to_hex (Digest.string bytes);
  }

let whole (b : Binfmt.Relf.t) : slice =
  let text = Binfmt.Relf.text_exn b in
  slice_of text text.addr (String.length text.bytes)

(* the partition is gapless from the text base, but a desynchronized
   sweep can still stop short of the section end; bytes no slice owns
   would be lost on reassembly, so such a text stays whole *)
let covers (text : Binfmt.Relf.section) fns =
  List.fold_left (fun s (f : Dataflow.Funs.fn) -> s + f.f_len) 0 fns
  = String.length text.bytes

let slices (b : Binfmt.Relf.t) : slice list =
  let text = Binfmt.Relf.text_exn b in
  let stream = X64.Disasm.sweep_stream ~addr:text.addr text.bytes in
  match Dataflow.Funs.partition ~text_addr:text.addr stream with
  | Some fns when covers text fns ->
    List.map (fun (f : Dataflow.Funs.fn) -> slice_of text f.f_addr f.f_len) fns
  | _ -> [ whole b ]

let slice_binary (b : Binfmt.Relf.t) (s : slice) : Binfmt.Relf.t =
  {
    b with
    entry = s.sl_addr;
    sections =
      [
        Binfmt.Relf.section ~executable:true ~name:".text" ~addr:s.sl_addr
          s.sl_bytes;
      ];
  }

let part_section (p : Rewrite.t) name =
  match Binfmt.Relf.find_section p.binary name with
  | Some s -> s.Binfmt.Relf.bytes
  | None -> ""

(* Each part's [.elimtab] is a policy line, then its entries sorted by
   address; the entries lie inside the part's slice and the slices come
   in address order, so the monolithic table is the first part's policy
   line followed by every part's entry lines in slice order.  The policy
   line depends only on the options and the backend, so every part must
   carry the same one. *)
let merge_elimtabs (parts : Rewrite.t list) : string =
  let split p =
    let s = part_section p Dataflow.Elimtab.section_name in
    let eol =
      match String.index_opt s '\n' with
      | Some i -> i + 1
      | None -> String.length s
    in
    (String.sub s 0 eol, s, eol)
  in
  match List.map split parts with
  | [] -> invalid_arg "Shard.rewrite: no slices"
  | (policy, _, _) :: _ as tabs ->
    let b = Buffer.create 4096 in
    Buffer.add_string b policy;
    List.iter
      (fun (line, s, eol) ->
        if not (String.equal line policy) then
          invalid_arg "Shard.rewrite: parts disagree on the .elimtab policy";
        Buffer.add_substring b s eol (String.length s - eol))
      tabs;
    Buffer.contents b

let add_stats (a : Rewrite.stats) (b : Rewrite.stats) : Rewrite.stats =
  {
    instrs_total = a.instrs_total + b.instrs_total;
    mem_ops = a.mem_ops + b.mem_ops;
    eliminated = a.eliminated + b.eliminated;
    eliminated_global = a.eliminated_global + b.eliminated_global;
    instrumented = a.instrumented + b.instrumented;
    full_sites = a.full_sites + b.full_sites;
    redzone_sites = a.redzone_sites + b.redzone_sites;
    temporal_sites = a.temporal_sites + b.temporal_sites;
    trampolines = a.trampolines + b.trampolines;
    checks_emitted = a.checks_emitted + b.checks_emitted;
    zero_save_sites = a.zero_save_sites + b.zero_save_sites;
    jump_patches = a.jump_patches + b.jump_patches;
    evictions = a.evictions + b.evictions;
    trap_patches = a.trap_patches + b.trap_patches;
    degraded_sites = a.degraded_sites + b.degraded_sites;
    skipped_sites = a.skipped_sites + b.skipped_sites;
    hoisted_checks = a.hoisted_checks + b.hoisted_checks;
    widened_span_bytes = a.widened_span_bytes + b.widened_span_bytes;
    text_bytes = a.text_bytes + b.text_bytes;
    tramp_bytes = a.tramp_bytes + b.tramp_bytes;
    checks_by_kind =
      (* every rewrite carries the same fixed kind list, in order *)
      List.map2
        (fun (k, va) (k', vb) ->
          if k <> k' then invalid_arg "Shard.rewrite: kind mismatch";
          (k, va + vb))
        a.checks_by_kind b.checks_by_kind;
  }

let assemble ~(binary : Binfmt.Relf.t) ~tramp_base (parts : Rewrite.t list) :
    Rewrite.t =
  let concat name =
    String.concat "" (List.map (fun p -> part_section p name) parts)
  in
  let traps = List.concat_map (fun (p : Rewrite.t) -> p.traps) parts in
  let binary =
    Patch.assemble binary ~text:(concat ".text") ~name:".redfat" ~tramp_base
      ~tramp:(concat ".redfat")
      ~extra:
        [
          Binfmt.Relf.section ~name:Dataflow.Elimtab.section_name ~addr:0
            (merge_elimtabs parts);
        ]
      traps
  in
  let stats =
    match List.map (fun (p : Rewrite.t) -> p.stats) parts with
    | [] -> assert false
    | s :: rest -> List.fold_left add_stats s rest
  in
  { Rewrite.binary; traps; stats }

(* the slices may come from a cache, and a list that unmarshals but
   does not tile this binary's text would splice a wrong binary; each
   slice must start where the previous one ended, hold the text's
   bytes at its range under their digest, and the last must end the
   text *)
let check_tiling (text : Binfmt.Relf.section) slices =
  let bad what = invalid_arg ("Shard.rewrite: " ^ what) in
  let size = String.length text.bytes in
  let stop =
    List.fold_left
      (fun pos (sl : slice) ->
        let off = sl.sl_addr - text.addr in
        let at = Printf.sprintf "slice 0x%x: %s" sl.sl_addr in
        if sl.sl_addr <> pos then bad (at "gap or overlap");
        if sl.sl_len <> String.length sl.sl_bytes || off + sl.sl_len > size
        then bad (at "overruns the text");
        if String.sub text.bytes off sl.sl_len <> sl.sl_bytes then
          bad (at "bytes differ from the text");
        if Digest.to_hex (Digest.string sl.sl_bytes) <> sl.sl_digest then
          bad (at "digest mismatch");
        pos + sl.sl_len)
      text.addr slices
  in
  if stop <> text.addr + size then bad "slices stop short of the text end"

(* sequential: slice k's trampoline base is the global base plus the
   trampoline bytes of slices 0..k-1 *)
let rewrite ~tramp_base binary slices part =
  check_tiling (Binfmt.Relf.text_exn binary) slices;
  let _, parts =
    List.fold_left_map
      (fun base sl ->
        let p = part ~tramp_base:base sl (slice_binary binary sl) in
        (base + p.Rewrite.stats.tramp_bytes, p))
      tramp_base slices
  in
  assemble ~binary ~tramp_base parts
