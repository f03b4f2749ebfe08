(** A bounded memo cache in front of {!Decoder}.

    The fleet collector re-runs a bucket's diagnosis as reports trickle
    in, and every re-run used to re-decode byte-identical ring snapshots
    — the hot path scaled with reports² instead of reports.  Decoding is
    a pure function of (module, tracer config, tail_stop, snapshot
    bytes), so the server memoizes it: the key digests all four.
    [tail_stop] MUST be part of the key — the same ring replayed to a
    failing pc and replayed with no tail yields different step suffixes
    (see DESIGN.md).

    Hits, misses, evictions and promotions are counted into the ambient
    {!Obs.Scope} as [decode_cache/{hits,misses,evictions,promotions}] (a
    no-op on domains without a scope installed).  {!stats} also counts
    the first three per cache; promotions are only counted in the
    scope.

    Policy: segmented LRU.  An entry enters a probation queue when it is
    added and moves to a protected queue (about 80% of its stripe) when
    a later {!find} hits it; a full protected queue demotes its least
    recently used entry back to probation.  Eviction takes the probation
    LRU first, so a scan of one-shot decodes — a fix sweep's diagnoses
    between stream ticks — cycles through probation and leaves the
    re-hit working set resident.  Stripes of one or two slots protect
    nothing and stay plain LRU.  Touch, promotion and eviction are
    O(1).

    The cache is lock-striped: keys map to one of N segments by digest
    hash, each segment a private table, its two queues and counters
    behind its own mutex, so concurrent probes from shard and pool
    domains only contend when they collide on a stripe.  Caches smaller
    than 64 entries use a single segment, which keeps their eviction
    order exact; larger ones stripe up to 16 ways.  The stripe count is
    fixed at creation — {!set_capacity} redistributes capacity across
    the existing segments.

    Memory: the default 1024 entries is 2.9x the streaming fleet's
    working set of 352 decode keys.  That working set measured 2.2 MB
    held (6.3 KB per entry on average; one decoded eval-set ring is at
    most 26 KB), so a full default cache holds about 6.5 MB. *)

type t

val create : ?capacity:int -> unit -> t
(** Holds at most [capacity] decode results (default 1024) under the
    segmented-LRU policy above.  Capacity 0 disables the cache: {!find}
    always misses and {!add} is a no-op. *)

val shared : t
(** The process-wide cache (capacity 1024) that trace processing uses by
    default; [--decode-cache N] resizes it, [--decode-cache 0] turns it
    off. *)

val capacity : t -> int

val set_capacity : t -> int -> unit
(** Shrinking demotes protected entries beyond the new protected share,
    then evicts (probation LRU first) down to the new capacity, counted
    as evictions; 0 clears and disables.  Raises [Invalid_argument] on
    negative capacity. *)

val enabled : t -> bool
(** [capacity t > 0] — callers skip key digesting entirely when off. *)

val key :
  Lir.Irmod.t -> config:Config.t -> ?tail_stop:int * int -> bytes -> string
(** Digest of module identity (name + instruction count), the decode
    parameters, the tail replay target, and the snapshot bytes.  The
    snapshot is hashed in place (digest-of-digest), never copied; the
    instruction count is the one {!Lir.Irmod.layout} memoized, so a key
    costs one ring digest plus a short header. *)

val find : t -> string -> Decoder.result option
(** Counts a hit or miss (also into the ambient scope).  A hit marks the
    entry recently used and promotes it out of probation. *)

val add : t -> string -> Decoder.result -> unit
(** Insert a decode result on probation (or refresh a resident key's
    recency without promoting it), evicting when full.  The result's [steps] array is shared, never copied: consumers
    must not mutate it. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
(** Counters summed over every segment (each read under its own lock).
    Every {!find} increments exactly one of hits/misses, so
    [hits + misses] equals the total probe count even under concurrent
    access from many domains. *)

val segments : t -> int
(** Number of lock stripes (fixed at creation). *)

val segment_stats : t -> stats array
(** Per-segment counters, in stripe order; {!stats} is their sum. *)

val clear : t -> unit
(** Drop all entries and reset the hit/miss/eviction counters. *)
