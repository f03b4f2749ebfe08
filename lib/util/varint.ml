(* Encode the 63-bit pattern of [v]; logical shifts make this total even
   when zigzag wraps into the sign bit. *)
let rec write_raw buf v =
  if v land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (v land 0x7f lor 0x80));
    write_raw buf (v lsr 7)
  end

let write_unsigned buf v =
  if v < 0 then invalid_arg "Varint.write_unsigned: negative";
  write_raw buf v

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let write_signed buf v = write_raw buf (zigzag v)

let try_read_unsigned b ~pos =
  let len = Bytes.length b in
  let rec go pos shift acc =
    if pos >= len then None
    else
      let c = Char.code (Bytes.get b pos) in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then Some (acc, pos + 1)
      else go (pos + 1) (shift + 7) acc
  in
  if pos < 0 then None else go pos 0 0

let try_read_signed b ~pos =
  match try_read_unsigned b ~pos with
  | None -> None
  | Some (v, next) -> Some (unzigzag v, next)

let encoded_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  if v < 0 then invalid_arg "Varint.encoded_size: negative" else go v 1
