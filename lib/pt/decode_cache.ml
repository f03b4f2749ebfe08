(* A cached decode, linked into one of its stripe's two recency queues.
   Each queue is circular through a sentinel: [next] runs from the
   sentinel to the most recently used entry, onward to the least recently
   used one, then back to the sentinel.  Relinking allocates nothing. *)
type entry = {
  key : string;
  result : Decoder.result;
  mutable protected : bool;
  mutable prev : entry;
  mutable next : entry;
}

(* One lock-striped segment: a private hash table, a segmented LRU and a
   counter set behind its own mutex.  Keys map to segments by digest hash,
   so concurrent probes from shard/pool domains only contend when they
   land on the same stripe.

   The segmented LRU keeps entries seen once on [probation] and moves an
   entry to [protected] when it is hit again.  Eviction takes the
   probation LRU first, so a scan of one-shot decodes (a fix sweep's
   diagnoses) cycles through probation and never reaches the re-hit
   working set.  A full protected queue demotes its LRU entry to the
   probation MRU. *)
type seg = {
  tbl : (string, entry) Hashtbl.t;
  probation : entry;  (* sentinel *)
  protected_q : entry;  (* sentinel *)
  mutable n_protected : int;
  mutable seg_cap : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  m : Mutex.t;
}

type t = {
  mutable cap : int;  (* total capacity, split across segments *)
  segs : seg array;  (* length fixed at creation *)
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let no_result =
  { Decoder.steps = [||]; lost_bytes = 0; desynced = false; thread_ended = false }

let sentinel () =
  let rec s =
    { key = ""; result = no_result; protected = false; prev = s; next = s }
  in
  s

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_mru q e =
  e.prev <- q;
  e.next <- q.next;
  q.next.prev <- e;
  q.next <- e

(* About 80% of a stripe is protected.  Stripes of one or two slots (as
   {!set_capacity} below the stripe count leaves them) protect nothing,
   so they stay plain LRU. *)
let protected_cap s = if s.seg_cap <= 2 then 0 else s.seg_cap * 4 / 5

(* Small caches stay single-segment so their eviction order is exact and
   observable (the unit tests rely on it); larger ones stripe up to 16
   ways with at least 16 slots per stripe. *)
let segments_for capacity = if capacity < 64 then 1 else min 16 (capacity / 16)

let make_seg cap =
  {
    tbl = Hashtbl.create (min 64 (max 1 cap));
    probation = sentinel ();
    protected_q = sentinel ();
    n_protected = 0;
    seg_cap = cap;
    hits = 0;
    misses = 0;
    evictions = 0;
    m = Mutex.create ();
  }

(* Segment [i] of [k] gets slot [cap/k + 1] while the remainder lasts, so
   the per-segment capacities always sum to the requested total. *)
let seg_cap_of ~cap ~nsegs i = (cap / nsegs) + (if i < cap mod nsegs then 1 else 0)

(* 2.9x the stream's measured working set of 352 decode keys (11 bugs,
   each a tail-stopped failing ring, a signature ring and 10 success
   reports of 2-3 rings). *)
let default_capacity = 1024

let create ?(capacity = default_capacity) () =
  if capacity < 0 then invalid_arg "Decode_cache.create: negative capacity";
  let nsegs = segments_for capacity in
  {
    cap = capacity;
    segs = Array.init nsegs (fun i -> make_seg (seg_cap_of ~cap:capacity ~nsegs i));
  }

let shared = create ()

let capacity t = t.cap

let enabled t = t.cap > 0

let segments t = Array.length t.segs

let seg_of t k = t.segs.(Hashtbl.hash k mod Array.length t.segs)

let locked s f =
  Mutex.lock s.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.m) f

(* Move the protected LRU entry to the probation MRU.  Called with the
   segment lock held and the protected queue non-empty. *)
let demote_one s =
  let e = s.protected_q.prev in
  unlink e;
  e.protected <- false;
  s.n_protected <- s.n_protected - 1;
  push_mru s.probation e

(* Drop the probation LRU entry, or the protected one when probation is
   empty (only after a shrink).  Called with the segment lock held on a
   non-empty segment. *)
let evict_one s =
  let q =
    if s.probation.prev != s.probation then s.probation else s.protected_q
  in
  let e = q.prev in
  unlink e;
  if e.protected then s.n_protected <- s.n_protected - 1;
  Hashtbl.remove s.tbl e.key;
  s.evictions <- s.evictions + 1;
  Obs.Scope.count "decode_cache/evictions" 1

let set_capacity t n =
  if n < 0 then invalid_arg "Decode_cache.set_capacity: negative capacity";
  t.cap <- n;
  let nsegs = Array.length t.segs in
  Array.iteri
    (fun i s ->
      locked s @@ fun () ->
      s.seg_cap <- seg_cap_of ~cap:n ~nsegs i;
      while s.n_protected > protected_cap s do
        demote_one s
      done;
      while Hashtbl.length s.tbl > s.seg_cap do
        evict_one s
      done)
    t.segs

(* The snapshot dominates the key material; hashing it in place and
   folding the digest into a small metadata header avoids copying every
   ring snapshot through a fresh Buffer on each probe. *)
let key m ~config ?tail_stop snapshot =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Lir.Irmod.name m);
  Buffer.add_char buf '\x00';
  let add_int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ';' in
  add_int (Lir.Irmod.instr_count m);
  add_int config.Config.buffer_size;
  add_int config.Config.psb_period_bytes;
  let tag, period = Config.timing_code config.Config.timing in
  add_int tag;
  add_int period;
  (match tail_stop with
  | None -> Buffer.add_char buf 'n'
  | Some (pc, t_hi) ->
    Buffer.add_char buf 's';
    add_int pc;
    add_int t_hi);
  Buffer.add_string buf (Digest.bytes snapshot);
  Digest.string (Buffer.contents buf)

(* Move [e] to the MRU end of the queue it is on. *)
let refresh s e =
  unlink e;
  push_mru (if e.protected then s.protected_q else s.probation) e

(* A hit on probation promotes the entry; a stripe without protected
   slots keeps it on probation, as plain LRU. *)
let touch s e =
  if e.protected || protected_cap s = 0 then refresh s e
  else begin
    unlink e;
    e.protected <- true;
    s.n_protected <- s.n_protected + 1;
    push_mru s.protected_q e;
    Obs.Scope.count "decode_cache/promotions" 1;
    if s.n_protected > protected_cap s then demote_one s
  end

let find t k =
  let s = seg_of t k in
  locked s @@ fun () ->
  match Hashtbl.find_opt s.tbl k with
  | Some e when s.seg_cap > 0 ->
    touch s e;
    s.hits <- s.hits + 1;
    Obs.Scope.count "decode_cache/hits" 1;
    Some e.result
  | Some _ | None ->
    s.misses <- s.misses + 1;
    Obs.Scope.count "decode_cache/misses" 1;
    None

(* Re-adding a resident key (two domains that missed on it at once)
   refreshes its place in its own queue: it was still only decoded, not
   hit, so it earns no promotion. *)
let add t k result =
  let s = seg_of t k in
  locked s @@ fun () ->
  if s.seg_cap > 0 then
    match Hashtbl.find_opt s.tbl k with
    | Some e -> refresh s e
    | None ->
      while Hashtbl.length s.tbl >= s.seg_cap do
        evict_one s
      done;
      let rec e = { key = k; result; protected = false; prev = e; next = e } in
      push_mru s.probation e;
      Hashtbl.add s.tbl k e

let seg_stats s =
  locked s @@ fun () ->
  {
    hits = s.hits;
    misses = s.misses;
    evictions = s.evictions;
    entries = Hashtbl.length s.tbl;
  }

let segment_stats t = Array.map seg_stats t.segs

let stats t =
  Array.fold_left
    (fun acc s ->
      let st = seg_stats s in
      {
        hits = acc.hits + st.hits;
        misses = acc.misses + st.misses;
        evictions = acc.evictions + st.evictions;
        entries = acc.entries + st.entries;
      })
    { hits = 0; misses = 0; evictions = 0; entries = 0 }
    t.segs

let clear t =
  Array.iter
    (fun s ->
      locked s @@ fun () ->
      Hashtbl.reset s.tbl;
      List.iter
        (fun q ->
          q.prev <- q;
          q.next <- q)
        [ s.probation; s.protected_q ];
      s.n_protected <- 0;
      s.hits <- 0;
      s.misses <- 0;
      s.evictions <- 0)
    t.segs
