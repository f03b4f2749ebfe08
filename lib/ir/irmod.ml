type t = {
  mname : string;
  structs : (string, Ty.t list) Hashtbl.t;
  globals : (string, Ty.t) Hashtbl.t;
  mutable funcs_rev : Func.t list;
  mutable next_iid : int;
  mutable next_reg : int;
  mutable laid_out : bool;
  mutable generation : int;  (* bumped by every layout rebuild *)
  mutable n_instrs : int;  (* instructions counted by the last layout *)
  by_iid : (int, Instr.t) Hashtbl.t;
  block_pcs : (string * string, int) Hashtbl.t;
  pc_blocks : (int, Func.t * Block.t) Hashtbl.t;
  iid_locs : (int, Func.t * Block.t) Hashtbl.t;
}

let create mname =
  {
    mname;
    structs = Hashtbl.create 16;
    globals = Hashtbl.create 16;
    funcs_rev = [];
    next_iid = 0;
    next_reg = 0;
    laid_out = false;
    generation = 0;
    n_instrs = 0;
    by_iid = Hashtbl.create 256;
    block_pcs = Hashtbl.create 64;
    pc_blocks = Hashtbl.create 64;
    iid_locs = Hashtbl.create 256;
  }

let name t = t.mname

let declare_struct t sname fields =
  if Hashtbl.mem t.structs sname then
    invalid_arg ("Irmod.declare_struct: duplicate " ^ sname);
  Hashtbl.add t.structs sname fields;
  Ty.Struct sname

let struct_fields t sname = Hashtbl.find t.structs sname

let declare_global t gname ty =
  if Hashtbl.mem t.globals gname then
    invalid_arg ("Irmod.declare_global: duplicate " ^ gname);
  Hashtbl.add t.globals gname ty

let global_ty t gname = Hashtbl.find t.globals gname
let iter_globals t f = Hashtbl.iter f t.globals

let add_func t f =
  t.laid_out <- false;
  t.funcs_rev <- f :: t.funcs_rev

let funcs t = List.rev t.funcs_rev

let find_func t fname =
  List.find (fun f -> String.equal f.Func.fname fname) t.funcs_rev

let has_func t fname =
  List.exists (fun f -> String.equal f.Func.fname fname) t.funcs_rev

let fresh_iid t =
  let iid = t.next_iid in
  t.next_iid <- iid + 1;
  iid

let fresh_reg t ~name ~ty =
  let rid = t.next_reg in
  t.next_reg <- rid + 1;
  { Value.rid; rname = Printf.sprintf "%s.%d" name rid; rty = ty }

(* Each instruction occupies 4 synthetic bytes; functions start on fresh
   0x1000-aligned pcs so pc ranges of different functions never collide even
   as functions grow. *)
let layout t =
  if not t.laid_out then begin
    Hashtbl.reset t.by_iid;
    Hashtbl.reset t.block_pcs;
    Hashtbl.reset t.pc_blocks;
    Hashtbl.reset t.iid_locs;
    let pc = ref 0x1000 and n = ref 0 in
    let visit_func f =
      pc := (!pc + 0xfff) land lnot 0xfff;
      let visit_block b =
        let start = !pc in
        Hashtbl.replace t.block_pcs (f.Func.fname, b.Block.label) start;
        Hashtbl.replace t.pc_blocks start (f, b);
        let visit_instr i =
          i.Instr.pc <- !pc;
          Hashtbl.replace t.by_iid i.Instr.iid i;
          Hashtbl.replace t.iid_locs i.Instr.iid (f, b);
          incr n;
          pc := !pc + 4
        in
        List.iter visit_instr b.Block.instrs
      in
      List.iter visit_block f.Func.blocks
    in
    List.iter visit_func (funcs t);
    t.n_instrs <- !n;
    t.generation <- t.generation + 1;
    t.laid_out <- true
  end

let generation t = t.generation

let invalidate_layout t = t.laid_out <- false

(* One entry per domain: the runs that dominate (collection, validation
   sweeps, a shard's decodes) use one module many times in a row, and a
   domain-local slot needs no lock. *)
let memo f =
  let key = Domain.DLS.new_key (fun () -> ref None) in
  fun t ->
    layout t;
    let slot = Domain.DLS.get key in
    match !slot with
    | Some (t', gen, v) when t' == t && gen = t.generation -> v
    | Some _ | None ->
      let v = f t in
      slot := Some (t, t.generation, v);
      v

let ensure_layout t = if not t.laid_out then layout t

let instr_by_iid t iid =
  ensure_layout t;
  Hashtbl.find t.by_iid iid

let block_start_pc t ~fname ~label =
  ensure_layout t;
  Hashtbl.find t.block_pcs (fname, label)

let block_at_pc t pc =
  ensure_layout t;
  Hashtbl.find t.pc_blocks pc

let is_block_start t pc =
  ensure_layout t;
  Hashtbl.mem t.pc_blocks pc

let location_of_iid t iid =
  ensure_layout t;
  Hashtbl.find t.iid_locs iid

let iter_instrs t f =
  let visit fn = Func.iter_instrs fn (fun b i -> f fn b i) in
  List.iter visit (funcs t)

(* Every edit that can change the count ([add_func], {!Rewrite}) clears
   [laid_out], so the memo is only trusted while the layout is current. *)
let instr_count t =
  if t.laid_out then t.n_instrs
  else List.fold_left (fun acc f -> acc + Func.instr_count f) 0 t.funcs_rev

let size_of t ty = Ty.size_in_bytes ~struct_fields:(struct_fields t) ty
