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
  (* Dense iid-indexed tables, [hole]/[no_loc] where no instruction has
     that iid: a relayout is array writes, with no hashing or regrowth. *)
  mutable by_iid : Instr.t array;
  mutable iid_locs : (Func.t * Block.t) array;
  block_pcs : (string * string, int) Hashtbl.t;
  pc_blocks : (int, Func.t * Block.t) Hashtbl.t;
}

let hole = Instr.make ~iid:(-1) Instr.Unreachable
let no_loc =
  (Func.create ~fname:"" ~params:[] ~ret:Ty.Void, Block.create ~label:"")

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
    by_iid = [||];
    iid_locs = [||];
    block_pcs = Hashtbl.create 64;
    pc_blocks = Hashtbl.create 64;
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
  { Value.rid; rname = name ^ "." ^ string_of_int rid; rty = ty }

(* Each instruction occupies 4 synthetic bytes; functions start on fresh
   0x1000-aligned pcs so pc ranges of different functions never collide even
   as functions grow.  The iid tables are reused across relayouts (an iid
   beyond them, minted outside [fresh_iid], grows them); the block tables
   are cleared, keeping their buckets. *)
let layout t =
  if not t.laid_out then begin
    let cap = Array.length t.by_iid in
    if cap < t.next_iid then begin
      let cap = max t.next_iid (2 * cap) in
      t.by_iid <- Array.make cap hole;
      t.iid_locs <- Array.make cap no_loc
    end
    else begin
      Array.fill t.by_iid 0 cap hole;
      Array.fill t.iid_locs 0 cap no_loc
    end;
    let grow iid =
      let cap = max (iid + 1) (2 * Array.length t.by_iid) in
      let extend a fill =
        let a' = Array.make cap fill in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      t.by_iid <- extend t.by_iid hole;
      t.iid_locs <- extend t.iid_locs no_loc
    in
    Hashtbl.clear t.block_pcs;
    Hashtbl.clear t.pc_blocks;
    let pc = ref 0x1000 and n = ref 0 in
    let visit_func f =
      pc := (!pc + 0xfff) land lnot 0xfff;
      let visit_block b =
        let start = !pc and loc = (f, b) in
        Hashtbl.replace t.block_pcs (f.Func.fname, b.Block.label) start;
        Hashtbl.replace t.pc_blocks start loc;
        let visit_instr i =
          i.Instr.pc <- !pc;
          let iid = i.Instr.iid in
          if iid >= 0 then begin
            if iid >= Array.length t.by_iid then grow iid;
            Array.unsafe_set t.by_iid iid i;
            Array.unsafe_set t.iid_locs iid loc
          end;
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
  if iid < 0 || iid >= Array.length t.by_iid then raise Not_found;
  let i = Array.unsafe_get t.by_iid iid in
  if i == hole then raise Not_found;
  i

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
  if iid < 0 || iid >= Array.length t.iid_locs then raise Not_found;
  let loc = Array.unsafe_get t.iid_locs iid in
  if loc == no_loc then raise Not_found;
  loc

let iter_instrs t f =
  let visit fn = Func.iter_instrs fn (fun b i -> f fn b i) in
  List.iter visit (funcs t)

(* Every edit that can change the count ([add_func], {!Rewrite}) clears
   [laid_out], so the memo is only trusted while the layout is current. *)
let instr_count t =
  if t.laid_out then t.n_instrs
  else List.fold_left (fun acc f -> acc + Func.instr_count f) 0 t.funcs_rev

let size_of t ty = Ty.size_in_bytes ~struct_fields:(struct_fields t) ty
