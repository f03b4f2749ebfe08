module Varint = Snorlax_util.Varint

type t =
  | Psb of { tsc : int }
  | Fup of { pc : int }
  | Tip of { pc : int }
  | Tip_end
  | Tnt of bool
  | Tnt_packed of { bits : int; count : int }
  | Mtc of { ctc : int }
  | Tma of { tsc : int }
  | Cyc of { delta : int }

let hdr_psb = 0x02
let psb_magic = 0x82
let hdr_fup = 0x03
let hdr_tip = 0x04
let hdr_tip_end = 0x05
let hdr_tnt = 0x06
let hdr_mtc = 0x07
let hdr_tma = 0x08
let hdr_cyc = 0x09
let hdr_tnt_packed = 0x0a

(* 48 branch bits + 6 count bits = 54 payload bits, comfortably inside
   the varint codec's 63-bit range. *)
let tnt_max_bits = 48

let[@inline] byte buf b = Buffer.add_char buf (Char.unsafe_chr (b land 0xff))

let encode buf p =
  match p with
  | Psb { tsc } ->
    byte buf hdr_psb;
    byte buf psb_magic;
    Varint.write_unsigned buf tsc
  | Fup { pc } ->
    byte buf hdr_fup;
    Varint.write_unsigned buf pc
  | Tip { pc } ->
    byte buf hdr_tip;
    Varint.write_unsigned buf pc
  | Tip_end -> byte buf hdr_tip_end
  | Tnt taken ->
    byte buf hdr_tnt;
    byte buf (if taken then 1 else 0)
  | Tnt_packed { bits; count } ->
    if count < 1 || count > tnt_max_bits then
      invalid_arg "Packet.encode: TNT count out of range";
    byte buf hdr_tnt_packed;
    (* One varint payload, like TIP/CYC, so the PSB framing argument
       (a terminal varint byte is always followed by a header < 0x20)
       holds unchanged.  Low 6 bits carry [count - 1]; branch bits are
       above, first branch in the least significant position. *)
    let bits = bits land ((1 lsl count) - 1) in
    Varint.write_unsigned buf ((bits lsl 6) lor (count - 1))
  | Mtc { ctc } ->
    byte buf hdr_mtc;
    byte buf (ctc land 0xff)
  | Tma { tsc } ->
    byte buf hdr_tma;
    Varint.write_unsigned buf tsc
  | Cyc { delta } ->
    byte buf hdr_cyc;
    Varint.write_unsigned buf delta

(* --- direct ring writers ---------------------------------------------- *)

module Ringbuf = Snorlax_util.Ringbuf

let rec put_varint ring v =
  if v land lnot 0x7f = 0 then Ringbuf.write_byte ring v
  else begin
    Ringbuf.write_byte ring (v land 0x7f lor 0x80);
    put_varint ring (v lsr 7)
  end

let[@inline] put_header_varint ring hdr v =
  if v < 0 then invalid_arg "Packet: negative payload";
  Ringbuf.write_byte ring hdr;
  put_varint ring v

let put_psb ring ~tsc =
  if tsc < 0 then invalid_arg "Packet: negative payload";
  Ringbuf.write_byte ring hdr_psb;
  Ringbuf.write_byte ring psb_magic;
  put_varint ring tsc

let put_fup ring ~pc = put_header_varint ring hdr_fup pc
let put_tip ring ~pc = put_header_varint ring hdr_tip pc
let put_tip_end ring = Ringbuf.write_byte ring hdr_tip_end

let put_tnt_packed ring ~bits ~count =
  if count < 1 || count > tnt_max_bits then
    invalid_arg "Packet.put_tnt_packed: TNT count out of range";
  let bits = bits land ((1 lsl count) - 1) in
  put_header_varint ring hdr_tnt_packed ((bits lsl 6) lor (count - 1))

let put_mtc ring ~ctc =
  Ringbuf.write_byte ring hdr_mtc;
  Ringbuf.write_byte ring ctc

let put_tma ring ~tsc = put_header_varint ring hdr_tma tsc
let put_cyc ring ~delta = put_header_varint ring hdr_cyc delta

let scan_psb_from b pos =
  let len = Bytes.length b in
  let rec go p =
    if p + 1 >= len then None
    else if
      Char.code (Bytes.get b p) = hdr_psb
      && Char.code (Bytes.get b (p + 1)) = psb_magic
    then Some p
    else go (p + 1)
  in
  go pos

let scan_psb b ~pos = scan_psb_from b pos

(* --- zero-allocation cursor ---------------------------------------------- *)

module Cursor = struct
  type kind =
    | Eof
    | Psb
    | Fup
    | Tip
    | Tip_end
    | Tnt
    | Mtc
    | Tma
    | Cyc

  type t = {
    buf : bytes;
    len : int;
    mutable pos : int;
    mutable kind : kind;
    mutable value : int;
    mutable count : int;
  }

  let make buf ~pos =
    { buf; len = Bytes.length buf; pos; kind = Eof; value = 0; count = 0 }

  (* Inline LEB128 read, result via [c.value]; -1 = truncated.  Top
     level (not a local closure of [advance]) so stepping allocates
     nothing. *)
  let varint_from c p =
    let b = c.buf in
    let rec go p shift acc =
      if p >= c.len then -1
      else
        let byte = Char.code (Bytes.unsafe_get b p) in
        let acc = acc lor ((byte land 0x7f) lsl shift) in
        if byte land 0x80 = 0 then begin
          c.value <- acc;
          p + 1
        end
        else go (p + 1) (shift + 7) acc
    in
    go p 0 0

  let[@inline] with_varint c k p =
    match varint_from c p with
    | -1 -> c.kind <- Eof
    | next ->
      c.kind <- k;
      c.pos <- next

  (* A truncated packet ends the stream; a corrupt header (or PSB magic)
     resynchronizes at the next PSB, since ring bytes are untrusted
     in-production input. *)
  let rec advance c =
    if c.pos >= c.len then c.kind <- Eof
    else begin
      let b = c.buf in
      let hdr = Char.code (Bytes.unsafe_get b c.pos) in
      if hdr = hdr_psb then
        if c.pos + 1 >= c.len then c.kind <- Eof
        else if Char.code (Bytes.unsafe_get b (c.pos + 1)) <> psb_magic then
          resync c
        else with_varint c Psb (c.pos + 2)
      else if hdr = hdr_fup then with_varint c Fup (c.pos + 1)
      else if hdr = hdr_tip then with_varint c Tip (c.pos + 1)
      else if hdr = hdr_tip_end then begin
        c.kind <- Tip_end;
        c.pos <- c.pos + 1
      end
      else if hdr = hdr_tnt then
        if c.pos + 1 >= c.len then c.kind <- Eof
        else begin
          c.kind <- Tnt;
          c.value <- (if Char.code (Bytes.unsafe_get b (c.pos + 1)) <> 0 then 1 else 0);
          c.count <- 1;
          c.pos <- c.pos + 2
        end
      else if hdr = hdr_tnt_packed then begin
        match varint_from c (c.pos + 1) with
        | -1 -> c.kind <- Eof
        | next ->
          c.kind <- Tnt;
          c.count <- (c.value land 0x3f) + 1;
          c.value <- c.value lsr 6;
          c.pos <- next
      end
      else if hdr = hdr_mtc then
        if c.pos + 1 >= c.len then c.kind <- Eof
        else begin
          c.kind <- Mtc;
          c.value <- Char.code (Bytes.unsafe_get b (c.pos + 1));
          c.pos <- c.pos + 2
        end
      else if hdr = hdr_tma then with_varint c Tma (c.pos + 1)
      else if hdr = hdr_cyc then with_varint c Cyc (c.pos + 1)
      else resync c
    end

  and resync c =
    match scan_psb_from c.buf (c.pos + 1) with
    | Some p ->
      c.pos <- p;
      advance c
    | None -> c.kind <- Eof
end
