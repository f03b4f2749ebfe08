type error = { where : string; what : string }

(* 0 when the block ends in its only terminator, 1 when its last
   instruction is no terminator, 2 when a terminator also sits earlier. *)
let seal_state instrs =
  let rec go middle = function
    | [] -> 1
    | [ last ] ->
      if not (Instr.is_terminator last) then 1 else if middle then 2 else 0
    | i :: rest -> go (middle || Instr.is_terminator i) rest
  in
  go false instrs

(* Functions (per check), labels and registers (per function) are looked
   up in hash tables, so the check is linear in the module's size. *)
let check m =
  let errors = ref [] in
  let fail ~where what = errors := { where; what } :: !errors in
  (* Name -> function, the latest definition winning as in
     [Irmod.find_func]. *)
  let funcs = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funcs f.Func.fname f) (Irmod.funcs m);
  let vty = Value.ty_of ~globals:(Irmod.global_ty m) in
  let check_use ~where defined i v =
    match v with
    | Value.Reg r when not (Hashtbl.mem defined r.Value.rid) ->
      fail ~where
        (Printf.sprintf "use before def of %s in: %s" (Value.to_string v)
           (Instr.to_string i))
    | Value.Reg _ | Value.Imm _ | Value.Null _ | Value.Fn_ref _
    | Value.Global _ ->
      ()
  in
  let check_func f =
    let where = f.Func.fname in
    if f.Func.blocks = [] then fail ~where "function has no blocks";
    (* Block labels unique and sealed; the smallest duplicate is the one
       reported. *)
    let labels = Hashtbl.create 16 in
    let dup = ref None in
    List.iter
      (fun b ->
        let l = b.Block.label in
        if Hashtbl.mem labels l then
          match !dup with
          | Some d when compare d l <= 0 -> ()
          | Some _ | None -> dup := Some l
        else Hashtbl.add labels l ())
      f.Func.blocks;
    (match !dup with
    | None -> ()
    | Some l -> fail ~where ("duplicate block label " ^ l));
    let seals = List.map (fun b -> seal_state b.Block.instrs) f.Func.blocks in
    List.iter2
      (fun b seal ->
        if seal = 2 then
          fail ~where (b.Block.label ^ ": terminator in block middle")
        else if seal = 1 then
          fail ~where (b.Block.label ^ ": block not sealed by a terminator"))
      f.Func.blocks seals;
    (* Branch targets resolve (only meaningful on sealed blocks). *)
    let check_targets b seal =
      if seal <> 1 then
        List.iter
          (fun l ->
            if not (Hashtbl.mem labels l) then
              fail ~where (b.Block.label ^ ": branch to unknown label " ^ l))
          (Block.successors b)
    in
    List.iter2 check_targets f.Func.blocks seals;
    (* Def-before-use in block order (approximation of dominance: a register
       must be defined in an earlier-or-same position of the block list). *)
    let defined = Hashtbl.create 32 in
    List.iter (fun r -> Hashtbl.replace defined r.Value.rid ()) f.Func.params;
    let check_instr i =
      List.iter (check_use ~where defined i) (Instr.operands i);
      (match Instr.defined_reg i with
      | Some r -> Hashtbl.replace defined r.Value.rid ()
      | None -> ());
      (* Operand typing for pointer-shaped instructions. *)
      match i.Instr.kind with
      | Instr.Load { dst; ptr } -> (
        match vty ptr with
        | Ty.Ptr p ->
          if not (Ty.equal p dst.Value.rty) then
            fail ~where ("load type mismatch: " ^ Instr.to_string i)
        | _ -> fail ~where ("load from non-pointer: " ^ Instr.to_string i))
      | Instr.Store { ptr; value } -> (
        match vty ptr with
        | Ty.Ptr p ->
          if not (Ty.equal p (vty value)) then
            fail ~where ("store type mismatch: " ^ Instr.to_string i)
        | _ -> fail ~where ("store to non-pointer: " ^ Instr.to_string i))
      | Instr.Gep { base; field; _ } -> (
        match vty base with
        | Ty.Ptr (Ty.Struct s) ->
          let nfields =
            match Irmod.struct_fields m s with
            | fields -> List.length fields
            | exception Not_found ->
              fail ~where ("gep into undeclared struct " ^ s);
              max_int
          in
          if field < 0 || field >= nfields then
            fail ~where ("gep field out of range: " ^ Instr.to_string i)
        | _ -> fail ~where ("gep base not a struct pointer: " ^ Instr.to_string i))
      | Instr.Call { callee; args; _ } -> (
        match Intrinsics.lookup callee with
        | Some { Intrinsics.arg_count; _ } ->
          if List.length args <> arg_count then
            fail ~where ("intrinsic arity mismatch: " ^ Instr.to_string i)
        | None -> (
          match Hashtbl.find_opt funcs callee with
          | None -> fail ~where ("call to unknown function " ^ callee)
          | Some target ->
            if List.length args <> List.length target.Func.params then
              fail ~where ("call arity mismatch: " ^ Instr.to_string i)))
      | Instr.Alloca _ | Instr.Binop _ | Instr.Icmp _ | Instr.Index _
      | Instr.Cast _ | Instr.Br _ | Instr.Cond_br _ | Instr.Ret _
      | Instr.Unreachable ->
        ()
    in
    Func.iter_instrs f (fun _ i -> check_instr i)
  in
  List.iter check_func (Irmod.funcs m);
  List.rev !errors

let check_exn m =
  match check m with
  | [] -> ()
  | errors ->
    let msgs =
      List.map (fun { where; what } -> where ^ ": " ^ what) errors
    in
    failwith ("Verify.check_exn:\n  " ^ String.concat "\n  " msgs)
