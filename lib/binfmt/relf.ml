(** RELF: the binary container format of the simulated toolchain.

    A stripped-down ELF analogue: named sections at fixed virtual
    addresses, an entry point, and PIC/stripped flags.  Crucially there
    is no symbol or type information — the rewriter sees exactly what
    RedFat sees in a stripped COTS binary: bytes, section boundaries,
    and an entry point. *)

type section = {
  name : string;
  addr : int;
  bytes : string;
  executable : bool;
  writable : bool;
}

type t = {
  entry : int;
  pic : bool;
  stripped : bool;
  sections : section list;
}

let magic = "RELF1\n"

let section ?(executable = false) ?(writable = false) ~name ~addr bytes =
  { name; addr; bytes; executable; writable }

let find_section t name = List.find_opt (fun s -> s.name = name) t.sections

let text_exn t =
  match find_section t ".text" with
  | Some s -> s
  | None -> invalid_arg "Relf.text_exn: no .text section"

let code_size t =
  List.fold_left
    (fun acc s -> if s.executable then acc + String.length s.bytes else acc)
    0 t.sections

let total_size t =
  List.fold_left (fun acc s -> acc + String.length s.bytes) 0 t.sections

(* --- serialization ------------------------------------------------- *)

let serialize (t : t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  let add_int v = Buffer.add_string b (Printf.sprintf "%x\n" v) in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string b s
  in
  add_int t.entry;
  add_int (if t.pic then 1 else 0);
  add_int (if t.stripped then 1 else 0);
  add_int (List.length t.sections);
  List.iter
    (fun s ->
      add_str s.name;
      add_int s.addr;
      add_int ((if s.executable then 1 else 0) lor if s.writable then 2 else 0);
      add_str s.bytes)
    t.sections;
  Buffer.contents b

let read r =
  Reader.magic r magic;
  let int () = Reader.hex r (Reader.field r) in
  let str () = Reader.bytes r (int ()) in
  let entry = int () in
  let pic = int () = 1 in
  let stripped = int () = 1 in
  (* a section is at least four one-digit lines: name length, address,
     flags and byte length *)
  let nsec = Reader.count r (int ()) ~size:8 in
  let sections =
    List.init nsec (fun _ ->
        let name = str () in
        let addr = int () in
        let flags = int () in
        let bytes = str () in
        { name; addr; bytes;
          executable = flags land 1 <> 0;
          writable = flags land 2 <> 0 })
  in
  { entry; pic; stripped; sections }

let parse data = read (Reader.create ~src:"<relf>" data)

let load ?(src = "<relf>") data =
  let r = Reader.create ~src data in
  let t = read r in
  match find_section t ".text" with
  | Some s when s.bytes <> "" -> t
  | s ->
    Reader.fail r Nocode
      ((if s = None then "no" else "empty") ^ " .text section")

let save path t =
  let oc = open_out_bin path in
  output_string oc (serialize t);
  close_out oc

let load_file path =
  load ~src:path (In_channel.with_open_bin path In_channel.input_all)

(* --- loading into a VM --------------------------------------------- *)

(** Metadata sections ([.elimtab], [.traptab]) sit at address 0 and are
    never mapped, so page 0 stays unmapped and a null dereference
    faults in every build. *)
let loadable s = s.addr <> 0

(** Map every loadable section into memory (an exec-style loader). *)
let load_into (mem : Vm.Mem.t) (t : t) : unit =
  List.iter
    (fun s -> if loadable s then Vm.Mem.write_string mem ~addr:s.addr s.bytes)
    t.sections

(** Disassemble the text section (for the CLI and debugging). *)
let disasm t =
  let s = text_exn t in
  X64.Disasm.dump ~addr:s.addr s.bytes
