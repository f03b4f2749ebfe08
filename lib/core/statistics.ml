module Stats = Snorlax_util.Stats

type scored = {
  pattern : Patterns.t;
  f1 : float;
  precision : float;
  recall : float;
  present_in_failing : int;
  present_in_successful : int;
}

let of_counts pattern ~present_in_failing ~present_in_successful ~n_failing =
  let fn_count = n_failing - present_in_failing in
  let precision, recall =
    Stats.precision_recall ~true_pos:present_in_failing
      ~false_pos:present_in_successful ~false_neg:fn_count
  in
  {
    pattern;
    f1 = Stats.f1 ~precision ~recall;
    precision;
    recall;
    present_in_failing;
    present_in_successful;
  }

let rank ~proximity_tp scored =
  (* Equal F1 scores are broken toward the structurally simpler pattern
     ([Patterns.kind_rank], the canonical order): an order violation
     whose failing thread also read the variable earlier always induces
     a tying atomicity candidate, and the fix developers apply targets
     the order.  Same-kind ties are broken by proximate cause: among
     remote accesses that all perfectly separate failing from successful
     runs, the one that executed *last* before the failure is the one
     the failing read actually observed (e.g. the free racing a reader
     outranks the store that preceded that free). *)
  let proximity = function
    | Patterns.Order { remote_iid; _ } | Patterns.Atomicity { remote_iid; _ } ->
      List.fold_left
        (fun acc (e : Trace_processing.event) -> max acc e.Trace_processing.seq)
        (-1)
        (Trace_processing.instances proximity_tp ~iid:remote_iid)
    | Patterns.Deadlock_cycle _ -> 0
  in
  let cmp a b =
    match compare b.f1 a.f1 with
    | 0 -> (
      match
        compare (Patterns.kind_rank a.pattern) (Patterns.kind_rank b.pattern)
      with
      | 0 -> compare (proximity b.pattern) (proximity a.pattern)
      | c -> c)
    | c -> c
  in
  List.stable_sort cmp scored

let top = function [] -> None | s :: _ -> Some s

let is_unique_top = function
  | [] | [ _ ] -> true
  | s1 :: s2 :: _ -> s1.f1 > s2.f1
