(** Plain-text rendering of every table and figure the paper's evaluation
    contains, in paper order.  Each single-table [print_*] returns the
    data it printed so callers (the bench harness, EXPERIMENTS.md
    generation) can reuse it. *)

val print_accuracy : unit -> (string * bool * float * bool) list
(** §6.1: per eval bug (id, root-cause match, A_O, unique top). *)

val print_figure7 : unit -> Stages.stage_shares list

val print_table4 : unit -> Analysis_time.row list

val print_figure8 : ?seeds:int list -> unit -> Overhead.row list

val print_figure9 : ?threads:int list -> unit -> Scalability.point list

val print_latency : unit -> Latency.row list

val print_hypothesis : ?samples:int -> unit -> unit
(** The ΔT tables — Table 1 (deadlock), Table 2 (order violation),
    Table 3 (atomicity ΔT1/ΔT2) — then their hypothesis summary. *)

val print_all : ?samples:int -> unit -> unit
(** Every table and figure in paper order — {!print_hypothesis}, the
    accuracy table, Figure 7, Table 4, Figures 8–9, the latency table —
    then the ablations ({!Ablations.print_all}). *)
