(* Function-granular partition of a recovered instruction stream; see
   funs.mli for the isolation conditions and the equivalence
   argument. *)

type fn = {
  f_first : int;
  f_count : int;
  f_addr : int;
  f_len : int;
}

let partition ~text_addr (stream : X64.Disasm.stream) : fn list option =
  let addrs = stream.addrs and instrs = stream.instrs and lens = stream.lens in
  let n = Array.length addrs in
  if n = 0 then None
  else begin
    (* the stream must start at the text base and cover it gaplessly
       (a desynchronized sweep leaves bytes no region owns) *)
    let contiguous =
      addrs.(0) = text_addr
      && (let ok = ref true in
          for i = 1 to n - 1 do
            if addrs.(i) <> addrs.(i - 1) + lens.(i - 1) then ok := false
          done;
          !ok)
    in
    if not contiguous then None
    else begin
      let g = Graph.of_instrs ~entry:text_addr stream in
      (* region starts: entry, aligned call targets, aligned
         code-pointer constants (the same instructions the graph
         treats as indirect-transfer targets) *)
      let is_start = Array.make n false in
      is_start.(0) <- true;
      Array.iter
        (fun ins ->
          let mark t =
            match Graph.index_at g t with
            | Some i -> is_start.(i) <- true
            | None -> ()
          in
          match ins with
          | X64.Isa.Call t -> mark t
          | X64.Isa.Mov_ri (_, v) -> mark v
          | _ -> ())
        instrs;
      let starts = ref [] in
      for i = n - 1 downto 0 do
        if is_start.(i) then starts := i :: !starts
      done;
      let starts = Array.of_list !starts in
      let nf = Array.length starts in
      if nf < 2 then None
      else begin
        let fn_of = Array.make n 0 in
        for f = 0 to nf - 1 do
          let lo = starts.(f) in
          let hi = if f + 1 < nf then starts.(f + 1) - 1 else n - 1 in
          for i = lo to hi do
            fn_of.(i) <- f
          done
        done;
        let ok = ref true in
        Array.iteri
          (fun i ins ->
            (* aligned jump targets stay within their region *)
            (match ins with
            | X64.Isa.Jmp t | X64.Isa.Jcc (_, t) -> (
              match Graph.index_at g t with
              | Some ti -> if fn_of.(ti) <> fn_of.(i) then ok := false
              | None -> ())
            | _ -> ());
            (* a region's final instruction must not reach the next
               region implicitly (fall-through, branch fall edge, or a
               call's return edge) *)
            if i < n - 1 && fn_of.(i + 1) <> fn_of.(i) then
              match X64.Isa.flow_of ins with
              | X64.Isa.Stop | X64.Isa.Dyn_goto -> ()
              | X64.Isa.Goto _ -> () (* target locality checked above *)
              | X64.Isa.Fall | X64.Isa.Branch _ | X64.Isa.To_call _
              | X64.Isa.Dyn_call ->
                ok := false)
          instrs;
        if not !ok then None
        else begin
          (* reachability must agree: DFS from each region start over
             the non-call edges (exactly the edges a region graph has)
             versus the whole graph's root reachability *)
          let nb = Graph.num_blocks g in
          let seen = Array.make nb false in
          let rec dfs b =
            if not seen.(b) then begin
              seen.(b) <- true;
              List.iter dfs (Graph.block g b).Graph.fall_succs
            end
          in
          Array.iter (fun s -> dfs g.Graph.block_of.(s)) starts;
          for b = 0 to nb - 1 do
            if seen.(b) <> Graph.reachable g b then ok := false
          done;
          if not !ok then None
          else
            Some
              (List.init nf (fun f ->
                   let first = starts.(f) in
                   let count =
                     (if f + 1 < nf then starts.(f + 1) else n) - first
                   in
                   let addr = addrs.(first) in
                   let last = first + count - 1 in
                   { f_first = first; f_count = count; f_addr = addr;
                     f_len = addrs.(last) + lens.(last) - addr }))
        end
      end
    end
  end
