type candidate = { iid : int; rank : int; access : [ `Read | `Write | `Lock ] }

let moved_type m (i : Lir.Instr.t) =
  let globals = Lir.Irmod.global_ty m in
  match i.Lir.Instr.kind with
  | Lir.Instr.Load { dst; _ } -> Some dst.Lir.Value.rty
  | Lir.Instr.Store { value; _ } -> Some (Lir.Value.ty_of ~globals value)
  | Lir.Instr.Call { callee; args; _ }
    when String.equal callee Lir.Intrinsics.mutex_lock
         || String.equal callee Lir.Intrinsics.mutex_unlock -> (
    match args with
    | a :: _ -> Some (Lir.Value.ty_of ~globals a)
    | [] -> None)
  | _ -> None

let access_kind (i : Lir.Instr.t) =
  match i.Lir.Instr.kind with
  | Lir.Instr.Load _ -> Some `Read
  | Lir.Instr.Store _ -> Some `Write
  | Lir.Instr.Call { callee; _ }
    when String.equal callee Lir.Intrinsics.mutex_lock ->
    Some `Lock
  | Lir.Instr.Call { callee; _ } when String.equal callee Lir.Intrinsics.free ->
    (* Freeing an object acts as the racing write in UAF bugs. *)
    Some `Write
  | _ -> None

let candidates m ~points_to ~executed ~anchor_iid =
  let anchor = Lir.Irmod.instr_by_iid m anchor_iid in
  let anchor_objs = Analysis.Pointsto.accessed_objects points_to anchor in
  let anchor_ty = moved_type m anchor in
  let out = ref [] in
  Lir.Irmod.iter_instrs m (fun _ _ i ->
      if Trace_processing.Iset.mem i.Lir.Instr.iid executed then
        match access_kind i with
        | None -> ()
        | Some access ->
          let objs = Analysis.Pointsto.accessed_objects points_to i in
          if Analysis.Memobj.sets_overlap objs anchor_objs then begin
            let rank =
              match anchor_ty, moved_type m i with
              | Some a, Some b when Lir.Ty.equal a b -> 1
              | Some _, Some _ -> 2
              | None, _ | _, None -> 2
            in
            out := { iid = i.Lir.Instr.iid; rank; access } :: !out
          end);
  List.stable_sort
    (fun a b ->
      match compare a.rank b.rank with 0 -> compare a.iid b.iid | c -> c)
    !out

let rank1_count cs = List.length (List.filter (fun c -> c.rank = 1) cs)
