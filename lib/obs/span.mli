(** Hierarchical timed spans — the structured replacement for ad-hoc
    [Sys.time] bracketing.

    A collector keeps one stack of open spans per display track (track 0
    is the pipeline itself; simulated threads can use their tid), so a
    span started while another is open on the same track becomes its
    child.  Timing uses monotonically-guarded wall-clock nanoseconds.
    Span names are slash-scoped, e.g. ["diagnosis/trace_processing"] —
    the prefix becomes the Chrome-trace category. *)

type arg_value = Str of string | Int of int | Float of float

type span = {
  id : int;
  name : string;
  track : int;
  parent : int option;  (** id of the enclosing open span on this track *)
  start_ns : float;
  mutable end_ns : float;  (** NaN while open *)
  mutable args : (string * arg_value) list;
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh collector.  [clock] (returning nanoseconds) is injectable for
    deterministic tests; the default is guarded [Unix.gettimeofday]. *)

val wall_clock_ns : unit -> float
(** The default clock: wall time in ns since process start, nudged to be
    strictly increasing (an absolute epoch would round the 1 ns nudge away
    at double precision). *)

val start : t -> ?track:int -> ?args:(string * arg_value) list -> string -> span

val finish : t -> span -> unit
(** Stamp the end time and pop the span from its track's open stack.
    Raises [Invalid_argument] if already finished. *)

val with_span :
  t -> ?track:int -> ?args:(string * arg_value) list -> string ->
  (span -> 'a) -> 'a
(** [start], run, then [finish] — even on exception. *)

val set_arg : span -> string -> arg_value -> unit
(** Attach or overwrite an argument; allowed after [finish] so funnel
    counts computed later in the pipeline can still be recorded. *)

val find_arg : span -> string -> arg_value option

val is_open : span -> bool

val duration_ns : span -> float
(** End minus start; NaN while open. *)

val elapsed_ns : t -> span -> float
(** Like [duration_ns] but reads the clock for a still-open span. *)

val open_span : t -> ?track:int -> unit -> span option
(** The innermost still-open span on [track] (default 0) — what a log
    event emitted "now" correlates to. *)

val spans : t -> span list
(** Every span ever started, in start order. *)

val orphans : t -> span list
(** Spans started but never finished — instrumentation bugs (or a crash
    unwound past them); the exporter emits them as open "B" events. *)

val render_tree : t -> string
(** Compact text rendering: one indented row per span with its duration in
    microseconds and its args, via [Util.Tablefmt]. *)
