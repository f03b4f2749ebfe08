(** Byte-level packet format of the control-flow trace, modelled on Intel
    Processor Trace (§5): per-thread streams of control packets (TNT bits
    for conditional branches, TIP for indirect targets, i.e. returns) and
    timing packets (MTC coarse-clock ticks, CYC deltas, TMA full re-syncs),
    with PSB synchronization points a decoder can find after the ring
    buffer has wrapped.

    Framing guarantees the byte pair [0x02 0x82] occurs only at a PSB
    boundary: packet headers are < 0x20, varint payload bytes never pair a
    terminal 0x02 with a following 0x82, and the single raw payload byte
    (MTC) follows its own header directly. *)

type t =
  | Psb of { tsc : int }  (** sync point with full timestamp (ns) *)
  | Fup of { pc : int }  (** pc bound to the preceding PSB *)
  | Tip of { pc : int }  (** indirect branch (return) target *)
  | Tip_end  (** thread exited (entry function returned) *)
  | Tnt of bool  (** conditional branch outcome (v1 per-bit form) *)
  | Tnt_packed of { bits : int; count : int }
      (** up to {!tnt_max_bits} branch outcomes in one packet, first
          branch in the least significant bit — the hardware-realistic
          form (Intel PT packs 6+ TNT bits per byte); the tracer emits
          these, and the per-bit v1 form stays decodable *)
  | Mtc of { ctc : int }  (** low 8 bits of the coarse time counter *)
  | Tma of { tsc : int }  (** full timestamp after a long quiet gap *)
  | Cyc of { delta : int }  (** ns elapsed since the last timing packet *)

val tnt_max_bits : int
(** Maximum [count] of a {!Tnt_packed} packet the tracer emits (48). *)

val encode : Buffer.t -> t -> unit
(** Raises [Invalid_argument] for a {!Tnt_packed} whose [count] is
    outside [1, tnt_max_bits]; bits above [count] are masked off. *)

(** {2 Direct ring writers}

    The tracer's emit path: each writes one packet straight into a ring,
    byte for byte what {!encode} writes for the same packet, without
    building a {!t} or staging a buffer.  They raise [Invalid_argument]
    where {!encode} does, and on a negative varint payload. *)

val put_psb : Snorlax_util.Ringbuf.t -> tsc:int -> unit
val put_fup : Snorlax_util.Ringbuf.t -> pc:int -> unit
val put_tip : Snorlax_util.Ringbuf.t -> pc:int -> unit
val put_tip_end : Snorlax_util.Ringbuf.t -> unit
val put_tnt_packed : Snorlax_util.Ringbuf.t -> bits:int -> count:int -> unit
val put_mtc : Snorlax_util.Ringbuf.t -> ctc:int -> unit
(** Writes the low 8 bits of [ctc]. *)

val put_tma : Snorlax_util.Ringbuf.t -> tsc:int -> unit
val put_cyc : Snorlax_util.Ringbuf.t -> delta:int -> unit

val scan_psb : bytes -> pos:int -> int option
(** Offset of the first PSB at or after [pos], or [None]. *)

(** The packet reader.  A cursor steps through the byte stream mutating
    its own fields — no packet values, tuples or list nodes are built.
    Reading never raises: a truncated final packet ends the stream, and
    a malformed header at a supposed boundary resynchronizes at the next
    PSB (the bytes in between are lost).  Tests check it against the
    encoder's input over random packet lists. *)
module Cursor : sig
  type kind =
    | Eof  (** end of stream (incl. a truncated final packet) *)
    | Psb  (** [value] = tsc *)
    | Fup  (** [value] = pc *)
    | Tip  (** [value] = pc *)
    | Tip_end
    | Tnt  (** [count] branch bits in [value], LSB first (1 for v1 form) *)
    | Mtc  (** [value] = ctc *)
    | Tma  (** [value] = tsc *)
    | Cyc  (** [value] = delta *)

  type t = {
    buf : bytes;
    len : int;
    mutable pos : int;  (** offset of the NEXT packet *)
    mutable kind : kind;
    mutable value : int;
    mutable count : int;
  }

  val make : bytes -> pos:int -> t
  (** A cursor positioned at [pos] (a packet boundary); [kind] is
      meaningless until the first {!advance}. *)

  val advance : t -> unit
  (** Step to the next packet, filling [kind]/[value]/[count]. *)
end
