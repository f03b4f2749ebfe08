type operand = Slot of int * string | Const of int | Global of int | Raise of exn

type intrinsic =
  | Malloc
  | Free
  | Mutex_init
  | Mutex_lock
  | Mutex_unlock
  | Cond_init
  | Cond_wait
  | Cond_signal
  | Cond_broadcast
  | Thread_create
  | Thread_join
  | Work
  | Io_delay
  | Assert_true
  | Print_i64
  | Rand

type op =
  | Alloca of { dst : int; size : int }
  | Load of { dst : int; ptr : operand; size : int }
  | Store of { value : operand; ptr : operand; size : int }
  | Binop of { dst : int; op : Instr.binop; lhs : operand; rhs : operand }
  | Icmp of { dst : int; cmp : Instr.icmp; lhs : operand; rhs : operand }
  | Gep of { dst : int; base : operand; offset : int }
  | Index of { dst : int; base : operand; idx : operand; esize : int }
  | Cast of { dst : int; src : operand }
  | Intrinsic of { dst : int; code : intrinsic; args : operand array }
  | Call of { dst : int; callee : int; args : operand array }
  | Br of int
  | Cond_br of { cond : operand; then_ : int; else_ : int }
  | Ret of operand option
  | Unreachable
  | Malformed of exn

type instr = { src : Instr.t; op : op }

type body = { blocks : instr array array; params : int array; slots : int }
type func = { fn : Func.t; entry_pc : int; mutable lowered : body option }

type t = {
  m : Irmod.t;
  funcs : func array;
  globals : string array;
  global_index : (string, int) Hashtbl.t;
  by_name : (string, int) Hashtbl.t;
  by_entry_pc : (int, int) Hashtbl.t;
}

let intrinsic_codes =
  Hashtbl.of_seq
    (List.to_seq
       [
         (Intrinsics.malloc, Malloc);
         (Intrinsics.free, Free);
         (Intrinsics.mutex_init, Mutex_init);
         (Intrinsics.mutex_lock, Mutex_lock);
         (Intrinsics.mutex_unlock, Mutex_unlock);
         (Intrinsics.cond_init, Cond_init);
         (Intrinsics.cond_wait, Cond_wait);
         (Intrinsics.cond_signal, Cond_signal);
         (Intrinsics.cond_broadcast, Cond_broadcast);
         (Intrinsics.thread_create, Thread_create);
         (Intrinsics.thread_join, Thread_join);
         (Intrinsics.work, Work);
         (Intrinsics.io_delay, Io_delay);
         (Intrinsics.assert_true, Assert_true);
         (Intrinsics.print_i64, Print_i64);
         (Intrinsics.rand, Rand);
       ])

(* The exception texts below (and the "Interp:" prefixes) are part of
   the simulator's behaviour: a broken patch that trips one is reported
   by its message. *)
let field_offset m sname field =
  let fields = Irmod.struct_fields m sname in
  let rec go i = function
    | [] -> invalid_arg "Interp.field_offset"
    | f :: rest -> if i = field then 0 else Irmod.size_of m f + go (i + 1) rest
  in
  go 0 fields

(* Byte extent of a load/store through [ptr]: the pointee size.  Memory
   cells live at distinct offsets computed from these same sizes, so two
   accesses conflict exactly when their byte ranges overlap. *)
let access_size m ptr =
  match Value.ty_of ~globals:(Irmod.global_ty m) ptr with
  | Ty.Ptr t -> ( try Irmod.size_of m t with _ -> 8)
  | _ -> 8
  | exception _ -> 8

let func_entry_pc m (f : Func.t) =
  Irmod.block_start_pc m ~fname:f.Func.fname ~label:(Func.entry f).Block.label

let lower_body t (f : Func.t) =
  let m = t.m in
  (* Dense slots, one per distinct register id the function mentions. *)
  let slot_of = Hashtbl.create 32 in
  let slot (r : Value.reg) =
    match Hashtbl.find_opt slot_of r.Value.rid with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slot_of in
      Hashtbl.add slot_of r.Value.rid s;
      s
  in
  let operand (v : Value.t) =
    match v with
    | Value.Reg r -> Slot (slot r, r.Value.rname)
    | Value.Imm (n, _) -> Const (Int64.to_int n)
    | Value.Null _ -> Const 0
    | Value.Global g -> (
      match Hashtbl.find_opt t.global_index g with
      | Some i -> Global i
      | None -> Raise Not_found)
    | Value.Fn_ref name -> (
      match func_entry_pc m (Irmod.find_func m name) with
      | pc -> Const pc
      | exception e -> Raise e)
  in
  let dst_opt = function Some r -> slot r | None -> -1 in
  let params = Array.of_list (List.map slot f.Func.params) in
  let block_index = Hashtbl.create 16 in
  List.iteri
    (fun i (b : Block.t) ->
      if not (Hashtbl.mem block_index b.Block.label) then
        Hashtbl.add block_index b.Block.label i)
    f.Func.blocks;
  let target label =
    match Hashtbl.find_opt block_index label with Some i -> i | None -> -1
  in
  let ptr_ty v = Value.ty_of ~globals:(Irmod.global_ty m) v in
  let lower (i : Instr.t) =
    let op =
      match i.Instr.kind with
      | Instr.Alloca { dst; ty } -> (
        match Irmod.size_of m ty with
        | size -> Alloca { dst = slot dst; size }
        | exception e -> Malformed e)
      | Instr.Load { dst; ptr } ->
        Load { dst = slot dst; ptr = operand ptr; size = access_size m ptr }
      | Instr.Store { value; ptr } ->
        Store
          { value = operand value; ptr = operand ptr; size = access_size m ptr }
      | Instr.Binop { dst; op; lhs; rhs } ->
        Binop { dst = slot dst; op; lhs = operand lhs; rhs = operand rhs }
      | Instr.Icmp { dst; cmp; lhs; rhs } ->
        Icmp { dst = slot dst; cmp; lhs = operand lhs; rhs = operand rhs }
      | Instr.Gep { dst; base; field } -> (
        match
          match ptr_ty base with
          | Ty.Ptr (Ty.Struct s) -> field_offset m s field
          | _ -> failwith "Interp: gep base not a struct pointer"
        with
        | offset -> Gep { dst = slot dst; base = operand base; offset }
        | exception e -> Malformed e)
      | Instr.Index { dst; base; idx } -> (
        match
          Irmod.size_of m
            (match ptr_ty base with
            | Ty.Ptr (Ty.Array (t, _)) -> t
            | Ty.Ptr t -> t
            | _ -> failwith "Interp: index base not a pointer")
        with
        | esize ->
          Index { dst = slot dst; base = operand base; idx = operand idx; esize }
        | exception e -> Malformed e)
      | Instr.Cast { dst; src } -> Cast { dst = slot dst; src = operand src }
      | Instr.Call { dst; callee; args } -> (
        let args () = Array.of_list (List.map operand args) in
        match Hashtbl.find_opt intrinsic_codes callee with
        | Some code -> Intrinsic { dst = dst_opt dst; code; args = args () }
        | None -> (
          match Hashtbl.find_opt t.by_name callee with
          | Some idx -> Call { dst = dst_opt dst; callee = idx; args = args () }
          | None -> Malformed Not_found))
      | Instr.Br label -> Br (target label)
      | Instr.Cond_br { cond; then_; else_ } ->
        Cond_br
          { cond = operand cond; then_ = target then_; else_ = target else_ }
      | Instr.Ret v -> Ret (Option.map operand v)
      | Instr.Unreachable -> Unreachable
    in
    { src = i; op }
  in
  let blocks =
    Array.of_list
      (List.map
         (fun (b : Block.t) -> Array.of_list (List.map lower b.Block.instrs))
         f.Func.blocks)
  in
  { blocks; params; slots = Hashtbl.length slot_of }

let body t f =
  match f.lowered with
  | Some b -> b
  | None ->
    let b = lower_body t f.fn in
    f.lowered <- Some b;
    b

let build m =
  let funcs =
    Array.of_list
      (List.map
         (fun (f : Func.t) ->
           let entry_pc =
             match func_entry_pc m f with pc -> pc | exception _ -> -1
           in
           { fn = f; entry_pc; lowered = None })
         (Irmod.funcs m))
  in
  let by_name = Hashtbl.create 16 in
  let by_entry_pc = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      Hashtbl.replace by_name f.fn.Func.fname i;
      if f.fn.Func.blocks <> [] then Hashtbl.replace by_entry_pc f.entry_pc i)
    funcs;
  let names = ref [] in
  Irmod.iter_globals m (fun g _ -> names := g :: !names);
  let globals = Array.of_list (List.rev !names) in
  let global_index = Hashtbl.create 16 in
  Array.iteri (fun i g -> Hashtbl.replace global_index g i) globals;
  { m; funcs; globals; global_index; by_name; by_entry_pc }

let of_module = Irmod.memo build

let funcs t = t.funcs
let globals t = t.globals
let find_func t name = t.funcs.(Hashtbl.find t.by_name name)

let func_at_entry_pc t pc =
  match Hashtbl.find_opt t.by_entry_pc pc with
  | Some i -> Some t.funcs.(i)
  | None -> None
