(** LEB128-style variable-length integer codec.

    Trace packets carry deltas (cycle counts, IP offsets) that are small most
    of the time; a varint encoding keeps the packet stream compact the same
    way Intel PT compresses target IPs and CYC payloads. *)

val write_unsigned : Buffer.t -> int -> unit
(** Encode a non-negative integer.  Raises [Invalid_argument] on negative
    input. *)

val write_signed : Buffer.t -> int -> unit
(** Zig-zag encode a possibly negative integer. *)

val try_read_unsigned : bytes -> pos:int -> (int * int) option
(** [try_read_unsigned b ~pos] decodes at [pos] and returns
    [Some (value, next_pos)]; [None] on truncated input or an
    out-of-range [pos].  Never raises: decoders of corrupt network bytes
    build on this. *)

val try_read_signed : bytes -> pos:int -> (int * int) option
(** Zig-zag decode; same contract as {!try_read_unsigned}. *)

val encoded_size : int -> int
(** Bytes {!write_unsigned} would use for this value. *)
