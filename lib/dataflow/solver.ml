(** Generic worklist fixpoint solver, functorized over the lattice.

    The engine of the forward analyses (availability), and of the
    test suite's reference liveness: a problem supplies
    the fact type, the join, the boundary fact for roots (forward) or
    exits (backward), and a per-block transfer; the solver seeds the
    worklist in reverse postorder (forward) or its reverse (backward)
    and iterates to the fixpoint.

    Facts must form a lattice of finite height under [join] (all
    clients here use finite bitmasks or finite fact sets), which
    guarantees termination. *)

module type PROBLEM = sig
  type fact

  val equal : fact -> fact -> bool
  val direction : [ `Forward | `Backward ]

  val init : fact
  (** Optimistic starting value for every non-boundary node. *)

  val boundary : fact
  (** Fact at roots (forward) / at blocks without successors
      (backward). *)

  val join : fact -> fact -> fact

  val succs : Graph.t -> Graph.block -> int list
  (** Which edge relation the problem flows along (e.g. liveness uses
      [fall_succs], availability uses [succs]). *)

  val transfer : Graph.t -> Graph.block -> fact -> fact
end

module Make (P : PROBLEM) = struct
  type result = { in_facts : P.fact array; out_facts : P.fact array }

  let solve (g : Graph.t) : result =
    let nb = Graph.num_blocks g in
    let in_facts = Array.make nb P.init in
    let out_facts = Array.make nb P.init in
    if nb = 0 then { in_facts; out_facts }
    else begin
      (* flow-predecessors under the problem's edge relation *)
      let fpreds = Array.make nb [] in
      Array.iter
        (fun (b : Graph.block) ->
          List.iter (fun s -> fpreds.(s) <- b.id :: fpreds.(s)) (P.succs g b))
        g.Graph.blocks;
      let order =
        (* reachable blocks in rpo first, then the rest in id order so
           unreachable code still gets (conservative) facts *)
        let seen = Array.make nb false in
        let l = ref [] in
        Array.iter
          (fun b ->
            seen.(b) <- true;
            l := b :: !l)
          g.Graph.rpo;
        Array.iter
          (fun (b : Graph.block) -> if not seen.(b.id) then l := b.id :: !l)
          g.Graph.blocks;
        let l = List.rev !l in
        match P.direction with `Forward -> l | `Backward -> List.rev l
      in
      let on_list = Array.make nb false in
      let q = Queue.create () in
      List.iter
        (fun b ->
          Queue.add b q;
          on_list.(b) <- true)
        order;
      let is_root =
        let a = Array.make nb false in
        List.iter (fun r -> a.(r) <- true) (Graph.roots g);
        a
      in
      while not (Queue.is_empty q) do
        let b = Queue.take q in
        on_list.(b) <- false;
        let blk = Graph.block g b in
        match P.direction with
        | `Forward ->
          let inp =
            let preds = fpreds.(b) in
            let base = if is_root.(b) || preds = [] then Some P.boundary else None in
            let joined =
              List.fold_left
                (fun acc p ->
                  match acc with
                  | None -> Some out_facts.(p)
                  | Some f -> Some (P.join f out_facts.(p)))
                base preds
            in
            Option.value joined ~default:P.init
          in
          in_facts.(b) <- inp;
          let out = P.transfer g blk inp in
          if not (P.equal out out_facts.(b)) then begin
            out_facts.(b) <- out;
            List.iter
              (fun s ->
                if not on_list.(s) then begin
                  Queue.add s q;
                  on_list.(s) <- true
                end)
              (P.succs g blk)
          end
        | `Backward ->
          let succs = P.succs g blk in
          let out =
            match succs with
            | [] -> P.boundary
            | s :: rest ->
              List.fold_left (fun acc x -> P.join acc in_facts.(x)) in_facts.(s)
                rest
          in
          out_facts.(b) <- out;
          let inp = P.transfer g blk out in
          if not (P.equal inp in_facts.(b)) then begin
            in_facts.(b) <- inp;
            (* re-queue the blocks that read in(b): predecessors under
               the problem's own edge relation *)
            List.iter
              (fun p ->
                if not on_list.(p) then begin
                  Queue.add p q;
                  on_list.(p) <- true
                end)
              fpreds.(b)
          end
      done;
      { in_facts; out_facts }
    end
end
