type t = {
  mname : string;
  structs : (string, Ty.t list) Hashtbl.t;
  globals : (string, Ty.t) Hashtbl.t;
  mutable funcs_rev : Func.t list;
  mutable next_iid : int;
  mutable next_reg : int;
  mutable laid_out : bool;  (* pcs, [block_bits] and [page_funcs] current *)
  mutable indexed : bool;  (* [by_iid] and [iid_locs] current *)
  mutable generation : int;  (* bumped by every layout rebuild *)
  mutable n_instrs : int;  (* instructions counted by the last layout *)
  (* Dense iid-indexed tables, [hole]/[no_loc] where no instruction has
     that iid: a relayout is array writes, with no hashing or regrowth,
     and an edit writes its own slots ({!place}). *)
  mutable by_iid : Instr.t array;
  mutable iid_locs : (Func.t * Block.t) array;
  (* Bit [k] is set when a block starts at pc [0x1000 + 4k]. *)
  mutable block_bits : Bytes.t;
  (* Page [pc lsr 12] -> the function whose code covers it, [no_func]
     where none does. *)
  mutable page_funcs : Func.t array;
}

let hole = Instr.make ~iid:(-1) Instr.Unreachable
let no_func = Func.create ~fname:"" ~params:[] ~ret:Ty.Void
let no_loc = (no_func, Block.create ~label:"")

let create mname =
  {
    mname;
    structs = Hashtbl.create 16;
    globals = Hashtbl.create 16;
    funcs_rev = [];
    next_iid = 0;
    next_reg = 0;
    laid_out = false;
    indexed = false;
    generation = 0;
    n_instrs = 0;
    by_iid = [||];
    iid_locs = [||];
    block_bits = Bytes.empty;
    page_funcs = [||];
  }

(* Instructions are the only mutable leaves ([pc]); kinds, registers and
   labels are immutable and shared.  The copy starts unlaid-out: its
   first lookup lays it out to the same pcs as the original. *)
let copy t =
  let copy_instr (i : Instr.t) = { i with Instr.pc = i.Instr.pc } in
  let copy_block (b : Block.t) =
    { b with Block.instrs = List.map copy_instr b.Block.instrs }
  in
  let copy_func (f : Func.t) =
    { f with Func.blocks = List.map copy_block f.Func.blocks }
  in
  {
    (create t.mname) with
    structs = Hashtbl.copy t.structs;
    globals = Hashtbl.copy t.globals;
    funcs_rev = List.map copy_func t.funcs_rev;
    next_iid = t.next_iid;
    next_reg = t.next_reg;
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

let invalidate_layout t =
  t.laid_out <- false;
  t.indexed <- false

let add_func t f =
  invalidate_layout t;
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

let grow_index t iid =
  let cap = max (iid + 1) (2 * Array.length t.by_iid) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.by_iid <- extend t.by_iid hole;
  t.iid_locs <- extend t.iid_locs no_loc

let[@inline] set_slot t (i : Instr.t) loc =
  let iid = i.Instr.iid in
  if iid >= 0 then begin
    if iid >= Array.length t.by_iid then grow_index t iid;
    Array.unsafe_set t.by_iid iid i;
    Array.unsafe_set t.iid_locs iid loc
  end

let place t loc (i : Instr.t) =
  if t.indexed then set_slot t i loc;
  t.laid_out <- false

let pc_base = 0x1000

let set_block_bit t pc =
  let slot = (pc - pc_base) lsr 2 in
  let byte = slot lsr 3 in
  let len = Bytes.length t.block_bits in
  if byte >= len then begin
    let b = Bytes.make (max (byte + 1) (2 * len)) '\000' in
    Bytes.blit t.block_bits 0 b 0 len;
    t.block_bits <- b
  end;
  Bytes.unsafe_set t.block_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.block_bits byte) lor (1 lsl (slot land 7))))

let set_page t pc f =
  let page = pc lsr 12 in
  let len = Array.length t.page_funcs in
  if page >= len then begin
    let a = Array.make (max (page + 1) (2 * len)) no_func in
    Array.blit t.page_funcs 0 a 0 len;
    t.page_funcs <- a
  end;
  Array.unsafe_set t.page_funcs page f

(* Each instruction occupies 4 synthetic bytes; functions start on fresh
   0x1000-aligned pcs so pc ranges of different functions never collide
   even as functions grow, and every page a function covers starts with
   one of its instructions.  All four tables are reused across relayouts
   (cleared, and grown when the module outgrows them). *)
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
    Bytes.fill t.block_bits 0 (Bytes.length t.block_bits) '\000';
    Array.fill t.page_funcs 0 (Array.length t.page_funcs) no_func;
    let pc = ref pc_base and n = ref 0 in
    let visit_func f =
      pc := (!pc + 0xfff) land lnot 0xfff;
      let visit_block b =
        let loc = (f, b) in
        if b.Block.instrs <> [] then set_block_bit t !pc;
        let visit_instr i =
          let p = !pc in
          i.Instr.pc <- p;
          if p land 0xfff = 0 then set_page t p f;
          set_slot t i loc;
          incr n;
          pc := p + 4
        in
        List.iter visit_instr b.Block.instrs
      in
      List.iter visit_block f.Func.blocks
    in
    List.iter visit_func (funcs t);
    t.n_instrs <- !n;
    t.generation <- t.generation + 1;
    t.laid_out <- true;
    t.indexed <- true
  end

let generation t = t.generation

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

let[@inline] ensure_layout t = if not t.laid_out then layout t
let[@inline] ensure_index t = if not t.indexed then layout t

let instr_by_iid t iid =
  ensure_index t;
  if iid < 0 || iid >= Array.length t.by_iid then raise Not_found;
  let i = Array.unsafe_get t.by_iid iid in
  if i == hole then raise Not_found;
  i

let location_of_iid t iid =
  ensure_index t;
  if iid < 0 || iid >= Array.length t.iid_locs then raise Not_found;
  let loc = Array.unsafe_get t.iid_locs iid in
  if loc == no_loc then raise Not_found;
  loc

let is_block_start t pc =
  ensure_layout t;
  pc >= pc_base
  && pc land 3 = 0
  &&
  let slot = (pc - pc_base) lsr 2 in
  let byte = slot lsr 3 in
  byte < Bytes.length t.block_bits
  && Char.code (Bytes.unsafe_get t.block_bits byte) land (1 lsl (slot land 7))
     <> 0

let first_pc (b : Block.t) =
  match b.Block.instrs with i :: _ -> i.Instr.pc | [] -> -1

let block_start_pc t ~fname ~label =
  ensure_layout t;
  let f = find_func t fname in
  match
    List.find (fun b -> String.equal b.Block.label label) f.Func.blocks
  with
  | b when b.Block.instrs <> [] -> first_pc b
  | _ -> raise Not_found

let block_at_pc t pc =
  if not (is_block_start t pc) then raise Not_found;
  let f = t.page_funcs.(pc lsr 12) in
  (f, List.find (fun b -> first_pc b = pc) f.Func.blocks)

let iter_instrs t f =
  let visit fn = Func.iter_instrs fn (fun b i -> f fn b i) in
  List.iter visit (funcs t)

(* Every edit that can change the count ([add_func], {!Rewrite}) clears
   [laid_out], so the memo is only trusted while the layout is current. *)
let instr_count t =
  if t.laid_out then t.n_instrs
  else List.fold_left (fun acc f -> acc + Func.instr_count f) 0 t.funcs_rev

let size_of t ty = Ty.size_in_bytes ~struct_fields:(struct_fields t) ty
