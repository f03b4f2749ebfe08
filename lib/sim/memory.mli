(** The simulated flat address space: a globals region, a bump-allocated
    heap with use-after-free tracking, and one stack region per thread.

    Cells hold whole machine words (the IR is well-typed, so a cell is only
    ever re-read at the width it was written, modulo casts that reinterpret
    the static type but not the bits).  Reads of valid-but-unwritten
    addresses yield 0, matching zero-initialized globals and calloc-like
    allocation. *)

type t

type access_error = Null | Freed | Unmapped

exception Fault of access_error
(** Raised by {!load} and {!store}: a faulting access ends the run, so
    the common path returns a bare value instead of a [result]. *)

val create : unit -> t

val load_globals : t -> Lir.Irmod.t -> unit
(** Assign an address to every module global. *)

val global_addr : t -> string -> int
(** Raises [Not_found] for unknown globals. *)

val alloc_heap : t -> size:int -> int

val heap_block_size : t -> int -> int option
(** Size of the live allocation starting exactly at the address, if any —
    the byte range a [free] of that address invalidates. *)

val free_heap : t -> int -> (unit, access_error) result
(** [Error Unmapped] when the address is not a live allocation base. *)

val frame_mark : t -> tid:int -> int
(** Current stack watermark of the thread; pass to {!pop_frame}. *)

val alloc_stack : t -> tid:int -> size:int -> int
val pop_frame : t -> tid:int -> mark:int -> unit

val load : t -> addr:int -> int
(** The word at [addr].  Raises {!Fault} on an invalid address. *)

val store : t -> addr:int -> value:int -> unit
(** Raises {!Fault} on an invalid address. *)
