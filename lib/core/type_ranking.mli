(** Steps 4–5 of Lazy Diagnosis: from the hybrid points-to solution, the
    candidate target instructions (those that may touch the memory the
    failing instruction touched), ranked by type (Figure 4): instructions
    moving a value of exactly the failing instruction's type come first;
    type-mismatched candidates (e.g. behind an [i8*] cast) are kept at a
    lower rank, never discarded. *)

type candidate = {
  iid : int;
  rank : int;  (** 1 = exact type match, 2 = mismatch *)
  access : [ `Read | `Write | `Lock ];
}

val moved_type : Lir.Irmod.t -> Lir.Instr.t -> Lir.Ty.t option
(** The type of the value a load reads / a store writes, or the pointer
    type a lock call operates on; [None] for other instructions. *)

val candidates :
  Lir.Irmod.t ->
  points_to:Analysis.Pointsto.t ->
  executed:Trace_processing.Iset.t ->
  anchor_iid:int ->
  candidate list
(** Executed memory accesses (and lock calls, and frees — the racing
    write of a use-after-free) whose accessed objects intersect the
    anchor's, rank-1 first, excluding nothing (§4.3).  The anchor itself
    is included. *)

val rank1_count : candidate list -> int
