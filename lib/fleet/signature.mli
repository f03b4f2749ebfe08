(** Crash signatures — the dedup key of the fleet collector.

    Ubuntu's Error Tracker and Windows Error Reporting both bucket the
    flood of in-production failure reports by a signature derived from
    the crash site before any human (or any expensive analysis) looks at
    them.  The fleet collector does the same: the failure class, the
    failing pc, and the tail of block entries the failing thread's ring
    snapshot decodes to (a control-flow "stack") — so the same bug hit
    by a thousand endpoints lands in one bucket, and two distinct bugs
    in the same program land in two. *)

type t = {
  bug_id : string;
  kind : string;  (** {!Snorlax_core.Report.kind_label} *)
  failing_pc : int;  (** pc of the anchor instruction *)
  block_stack : int list;
      (** the last {!stack_depth} block-entry pcs the failing thread
          executed, oldest first; empty when its ring did not survive *)
}

val stack_depth : int
(** How many trailing block entries the signature keeps (8). *)

val block_stack_of_steps : Lir.Irmod.t -> Pt.Decoder.step array -> int list
(** The last {!stack_depth} block-entry pcs among one thread's decoded
    steps, oldest first.  Walks back from the newest step and stops at
    the bound, so its cost does not grow with the ring. *)

val of_failing :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  bug_id:string ->
  Snorlax_core.Report.failing_report ->
  (t, string) result
(** Compute the signature server-side from a decoded wire report.
    [Error] when the report references an instruction the module does not
    contain (a corrupt or mismatched report). *)

val key : t -> string
(** Stable bucketing key; equal signatures have equal keys. *)

val to_string : t -> string
(** Short human form for tables, e.g. ["assert@0x2a4 via 0x280>0x29c"]. *)
