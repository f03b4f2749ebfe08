(** Deterministic pseudo-random number generation.

    The simulator, the scheduler and the workload generators must be
    reproducible from a single integer seed, so we implement SplitMix64
    rather than relying on [Random]'s unspecified cross-version stream. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is a pure function of
    [seed]. *)

val copy : t -> t
(** Independent copy: advancing one does not affect the other. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream, advancing [t].
    Streams of [t] and the result are statistically independent. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]]. Requires [lo <= hi]. *)

val float : t -> bound:float -> float
(** Uniform in [\[0, bound)]: [float_of_int (bits53 t) /. 2{^53} *. bound]. *)

val bits53 : t -> int
(** The top 53 bits of the next raw output, uniform in [\[0, 2{^53})].
    {!float} is this draw scaled; a hot caller that scales it locally
    gets the same value bit for bit without a boxed float return. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> p:float -> bool
(** [chance t ~p] is true with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
