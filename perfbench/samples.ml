(* Raw samples, grouped into the measured units they were taken in (a
   stream episode, a pass over the bug list), and the percentiles computed
   from them with [Snorlax_util.Stats.percentile] (nearest rank).  Every
   percentile the benchmark prints comes from here, never from the
   program's power-of-two histogram bins.

   A latency percentile is taken per unit and the median over units is
   reported: every unit does the same work, so a stretch of slow host time
   moves a few units' values instead of shifting every pooled sample.
   Each unit keeps the wall-clock window it was measured in, so its value
   can be scaled by the host's speed over that window ([Yardstick]).
   Samples stay in flat float arrays, which the GC does not scan. *)

type unit_ = { from : float; until : float; xs : float array }

type t = {
  mutable xs : float array;  (** the open unit's samples *)
  mutable n : int;
  mutable from : float;  (** when the open unit's first operation started *)
  mutable closed : unit_ list;  (** newest first *)
}

let create () = { xs = Array.make 256 0.; n = 0; from = 0.; closed = [] }

(* [x] is the duration (ns) of an operation that ends now. *)
let add t x =
  if t.n = 0 then t.from <- Yardstick.now () -. x;
  if t.n = Array.length t.xs then t.xs <- Array.append t.xs (Array.make t.n 0.);
  t.xs.(t.n) <- x;
  t.n <- t.n + 1

(* End the current unit; a unit with no samples is dropped. *)
let close t =
  if t.n > 0 then begin
    t.closed <- { from = t.from; until = Yardstick.now (); xs = Array.sub t.xs 0 t.n } :: t.closed;
    t.n <- 0
  end

(* A unit of one value — a unit's throughput — measured since [from]. *)
let add_unit t ~from x = t.closed <- { from; until = Yardstick.now (); xs = [| x |] } :: t.closed

let units t = List.length t.closed
let count t = List.fold_left (fun a (u : unit_) -> a + Array.length u.xs) t.n t.closed
let pct xs p = if xs = [] then 0. else Snorlax_util.Stats.percentile xs ~p
let upct (u : unit_) p = pct (Array.to_list u.xs) p

(* Over every sample, whatever its unit; 0 when there are none. *)
let percentile t p =
  pct (List.concat_map (fun (u : unit_) -> Array.to_list u.xs) t.closed @ Array.to_list (Array.sub t.xs 0 t.n)) p

(* Each closed unit's [p]th percentile times [scale] over its window,
   oldest unit first, and their median. *)
let unit_values ?(scale = fun ~from:_ ~until:_ -> 1.) t p =
  List.rev_map (fun (u : unit_) -> scale ~from:u.from ~until:u.until *. upct u p) t.closed

let windows t = List.rev_map (fun (u : unit_) -> (u.from, u.until)) t.closed

(* Samples strictly above their own unit's [p]th percentile — the tail
   the per-unit percentiles rest on, printed beside them. *)
let beyond t p =
  List.fold_left
    (fun a (u : unit_) ->
      let v = upct u p in
      Array.fold_left (fun a x -> if x > v then a + 1 else a) a u.xs)
    0 t.closed
