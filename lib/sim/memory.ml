(* Address-space layout (synthetic, collision-free by construction):
     0x0000_0000 .. 0x0000_0fff   null page (always faults)
     0x0000_1000 .. 0x00ff_ffff   code (instruction pcs; faults on data access)
     0x0100_0000 .. 0x0fff_ffff   globals
     0x1000_0000 .. 0x3fff_ffff   heap
     0x4000_0000 ..               stacks, 0x10_0000 bytes per thread *)

let null_limit = 0x1000
let globals_base = 0x0100_0000
let heap_base = 0x1000_0000
let heap_limit = 0x4000_0000
let stacks_base = 0x4000_0000
let stack_size = 0x10_0000

type access_error = Null | Freed | Unmapped

exception Fault of access_error

(* Cells live in an open-addressing table of parallel int arrays, so a
   load or store allocates nothing.  Key 0 marks an empty slot: no valid
   address lies in the null page.  A run touches a few hundred cells, so
   the table starts small and doubles at half load. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable used : int;
  globals : (string, int) Hashtbl.t;
  mutable globals_top : int;
  mutable heap_top : int;
  live_heap : (int, int) Hashtbl.t; (* base -> size *)
  mutable freed : (int * int) list; (* (base, size), most recent first *)
  mutable stack_tops : int array; (* tid -> next free stack addr; 0 = unset *)
}

let initial_slots = 128

let create () =
  {
    keys = Array.make initial_slots 0;
    vals = Array.make initial_slots 0;
    used = 0;
    globals = Hashtbl.create 32;
    globals_top = globals_base;
    heap_top = heap_base;
    live_heap = Hashtbl.create 16;
    freed = [];
    stack_tops = Array.make 8 0;
  }

(* A multiplicative hash of the word index; the table length is a power
   of two. *)
let[@inline] slot_of keys addr =
  ((addr lsr 3) * 0x9E3779B97F4A7C1) lsr 17 land (Array.length keys - 1)

let rec probe keys addr i =
  let k = Array.unsafe_get keys i in
  if k = addr || k = 0 then i
  else probe keys addr ((i + 1) land (Array.length keys - 1))

let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n 0;
  t.vals <- Array.make n 0;
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> 0 then begin
      let j = probe t.keys k (slot_of t.keys k) in
      t.keys.(j) <- k;
      t.vals.(j) <- vals.(i)
    end
  done

let cell_get t addr =
  let i = probe t.keys addr (slot_of t.keys addr) in
  Array.unsafe_get t.vals i

let cell_set t addr v =
  let i = probe t.keys addr (slot_of t.keys addr) in
  if Array.unsafe_get t.keys i = 0 then begin
    Array.unsafe_set t.keys i addr;
    t.used <- t.used + 1
  end;
  Array.unsafe_set t.vals i v;
  if 2 * t.used > Array.length t.keys then grow t

let align8 n = (n + 7) land lnot 7

let load_globals t m =
  Lir.Irmod.iter_globals m (fun name ty ->
      let size = align8 (max 8 (Lir.Irmod.size_of m ty)) in
      Hashtbl.replace t.globals name t.globals_top;
      t.globals_top <- t.globals_top + size)

let global_addr t name = Hashtbl.find t.globals name

let alloc_heap t ~size =
  let base = t.heap_top in
  t.heap_top <- t.heap_top + align8 (max 8 size);
  Hashtbl.replace t.live_heap base size;
  (* Re-allocation of a previously freed base is impossible (bump allocator),
     so stale freed records never shadow live memory. *)
  base

let heap_block_size t base = Hashtbl.find_opt t.live_heap base

let free_heap t base =
  match Hashtbl.find_opt t.live_heap base with
  | None -> Error Unmapped
  | Some size ->
    Hashtbl.remove t.live_heap base;
    t.freed <- (base, size) :: t.freed;
    Ok ()

let stack_base tid = stacks_base + (tid * stack_size)

let frame_mark t ~tid =
  if tid >= Array.length t.stack_tops then begin
    let grown = Array.make (max (tid + 1) (2 * Array.length t.stack_tops)) 0 in
    Array.blit t.stack_tops 0 grown 0 (Array.length t.stack_tops);
    t.stack_tops <- grown
  end;
  match t.stack_tops.(tid) with
  | 0 ->
    let base = stack_base tid in
    t.stack_tops.(tid) <- base;
    base
  | top -> top

let alloc_stack t ~tid ~size =
  let top = frame_mark t ~tid in
  t.stack_tops.(tid) <- top + align8 (max 8 size);
  top

let pop_frame t ~tid ~mark = t.stack_tops.(tid) <- mark

let rec in_freed addr = function
  | [] -> false
  | (base, size) :: rest ->
    (addr >= base && addr < base + size) || in_freed addr rest

let validate t addr =
  if addr < null_limit then raise (Fault Null)
  else if addr < globals_base then raise (Fault Unmapped) (* code region *)
  else if addr < heap_base then begin
    if addr >= t.globals_top then raise (Fault Unmapped)
  end
  else if addr < heap_limit then begin
    if in_freed addr t.freed then raise (Fault Freed)
    else if addr >= t.heap_top then raise (Fault Unmapped)
  end
  (* stack zone: frame discipline keeps accesses in-bounds *)

let load t ~addr =
  validate t addr;
  cell_get t addr

let store t ~addr ~value =
  validate t addr;
  cell_set t addr value
