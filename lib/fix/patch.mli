(** Pattern-directed patch synthesis: each diagnosed bug class maps to a
    small menu of IR transformations ({!template}s) applied to a
    {!Lir.Irmod.copy} of the diagnosed module.  Synthesis is purely structural — it
    guarantees the patched module still verifies and that every original
    instruction keeps its iid — while {!Validate} is the semantic referee
    (failing-seed replay plus an HB-oracle sweep). *)

type template =
  | Lock_region
      (** atomicity: a new mutex across the local..anchor window, the
          remote access bracketed by the same mutex *)
  | Lock_function
      (** atomicity fallback: the mutex held across the whole enclosing
          function when the surgical window is rejected *)
  | Signal_wait
      (** order: flag + condvar; anchor side signals right after the
          anchor, remote side waits for the flag *)
  | Signal_at_exit
      (** order fallback: signal at every return of the anchor's
          function instead of directly after the anchor *)
  | Gate_serialize
      (** deadlock: a gate mutex held across each side's hold..attempt
          window, serializing the crossed acquisitions *)

val template_name : template -> string

val candidates : Snorlax_core.Patterns.t -> template list
(** Applicable templates for a diagnosed pattern, most surgical first. *)

type t = {
  template : template;
  mutex_global : string;  (** the minted mutex/gate global *)
  touched_funcs : string list;  (** functions whose bodies were edited *)
  description : string;
}

val synthesize :
  m:Lir.Irmod.t -> pattern:Snorlax_core.Patterns.t -> template ->
  (t, string) result
(** Apply the template to [m] {e in place}.  [Error] when the template
    does not fit the pattern's shape (window spans functions, side
    entries into the lock region, overlapping deadlock windows, ...);
    the module may be partially edited on error, so callers patch a
    throwaway copy per attempt.  On [Ok] the module has been re-verified
    and re-laid-out. *)
