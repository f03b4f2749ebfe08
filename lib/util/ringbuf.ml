(* Storage is content-sized: it starts at [initial_storage] bytes and
   doubles (clamped to [cap]) while the ring has not yet wrapped, so a
   trace that only ever holds a few hundred bytes never pays for a full
   capacity allocation.  Until storage reaches [cap] the contents are
   linear — [head = filled = written] — so growing is one blit; from then
   on the ring behaves exactly like a full-capacity ring, with the next
   write position always [written mod cap]. *)

type t = {
  mutable data : bytes;
  cap : int;
  mutable head : int; (* next write position *)
  mutable filled : int; (* bytes retained, <= cap *)
  mutable written : int; (* bytes ever written *)
}

let initial_storage = 256

let create ~capacity =
  assert (capacity > 0);
  {
    data = Bytes.create (min capacity initial_storage);
    cap = capacity;
    head = 0;
    filled = 0;
    written = 0;
  }

let capacity t = t.cap
let length t = t.filled
let total_written t = t.written
let wrapped t = t.written > t.cap
let storage t = Bytes.length t.data

(* Make storage hold at least [need] (<= cap) bytes.  Only called before
   the first wrap, when the live bytes are [0, filled) in order. *)
let reserve t need =
  let len = Bytes.length t.data in
  if need > len then begin
    let size = ref len in
    while !size < need do
      size := min t.cap (2 * !size)
    done;
    let d = Bytes.create !size in
    Bytes.blit t.data 0 d 0 t.filled;
    t.data <- d
  end

let write_byte t b =
  if t.head >= Bytes.length t.data then reserve t (t.written + 1);
  Bytes.unsafe_set t.data t.head (Char.unsafe_chr (b land 0xff));
  let h = t.head + 1 in
  t.head <- (if h = t.cap then 0 else h);
  if t.filled < t.cap then t.filled <- t.filled + 1;
  t.written <- t.written + 1

(* Of a write longer than the capacity only the last [cap] bytes
   survive; the skipped prefix still advances the write position, as if
   written byte by byte. *)
let write_bytes t src =
  let n = Bytes.length src in
  if n > 0 then begin
    let cap = t.cap in
    if Bytes.length t.data < cap then reserve t (min cap (t.written + n));
    let skip = if n > cap then n - cap else 0 in
    let m = n - skip in
    let head = (t.head + skip) mod cap in
    let first = min m (cap - head) in
    Bytes.blit src skip t.data head first;
    if m > first then Bytes.blit src (skip + first) t.data 0 (m - first);
    t.head <- (head + m) mod cap;
    t.filled <- min cap (t.filled + n);
    t.written <- t.written + n
  end

let snapshot t =
  let n = t.filled in
  let out = Bytes.create n in
  let start = t.head - n in
  if start >= 0 then Bytes.blit t.data start out 0 n
  else begin
    (* Wrapped: the oldest bytes sit at the end of full-size storage. *)
    let older = -start in
    Bytes.blit t.data (t.cap - older) out 0 older;
    Bytes.blit t.data 0 out older t.head
  end;
  out

let clear t =
  t.head <- 0;
  t.filled <- 0;
  t.written <- 0
