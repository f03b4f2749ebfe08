(** Fixed-capacity byte ring buffer.

    Models the in-memory trace buffer of a hardware tracer: writes never
    block, old bytes are silently overwritten once the buffer is full, and a
    snapshot returns the surviving bytes in write order.  The consumer (the
    trace decoder) must re-synchronize inside the snapshot, exactly as an
    Intel PT decoder re-synchronizes at a PSB packet after wrap-around.

    Storage is content-sized: it starts small and doubles up to the
    capacity as bytes arrive, so a ring that only ever holds a few hundred
    bytes never allocates its full capacity.  Growth is invisible to every
    operation below. *)

type t

val create : capacity:int -> t
(** [create ~capacity] makes an empty buffer holding at most [capacity]
    bytes.  Requires [capacity > 0]. *)

val capacity : t -> int

val length : t -> int
(** Number of bytes currently retained (≤ capacity). *)

val total_written : t -> int
(** Bytes ever written, including overwritten ones. *)

val wrapped : t -> bool
(** True once at least one byte has been overwritten. *)

val storage : t -> int
(** Bytes of storage currently allocated (≤ capacity); grows with the
    content, never shrinks. *)

val write_byte : t -> int -> unit
(** Append one byte (low 8 bits used). *)

val write_bytes : t -> bytes -> unit
(** Append all bytes of the argument. *)

val write_buffer : t -> Buffer.t -> unit
(** Append the buffer's contents, without an intermediate copy. *)

val snapshot : t -> bytes
(** Surviving bytes, oldest first.  Does not modify the buffer; allocates
    only the result. *)

val clear : t -> unit
(** Drop all contents and reset counters (storage is kept). *)
