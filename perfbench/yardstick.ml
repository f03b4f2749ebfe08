(* The host's speed, sampled between measured steps.

   On a shared virtual machine the same work can take up to 1.7 times as
   long from one stretch of seconds to the next, and every timing of a
   run moves with it.  The yardstick is a fixed computation that uses
   nothing of the program and allocates nothing — integer mixing — timed
   between measured steps, so each stretch of measured time has the
   host's speed recorded beside it.  [factor] turns that into a scale for
   the timings taken in a window: the yardstick's nominal time over its
   median time in and around the window. *)

let now = Obs.Span.wall_clock_ns

let mix n =
  let x = ref 88172645 in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13) land 0xffffffffffff;
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17) land 0xffffffffffff
  done;
  !x

let sink = ref 0

(* End time and duration (ns) of each yardstick run. *)
let ts = ref (Array.make 1024 0.)
let ys = ref (Array.make 1024 0.)
let n = ref 0
let last = ref Float.neg_infinity

(* At most one run per [gap]: about 1.5% of the measured time. *)
let gap = 60e6

let sample () =
  let t0 = now () in
  if t0 -. !last >= gap then begin
    sink := !sink + mix 200_000;
    let t1 = now () in
    last := t1;
    if !n = Array.length !ts then begin
      ts := Array.append !ts (Array.make !n 0.);
      ys := Array.append !ys (Array.make !n 0.)
    end;
    !ts.(!n) <- t1;
    !ys.(!n) <- t1 -. t0;
    incr n
  end

(* The yardstick's median time on a 2-core x86-64 virtual machine
   (OCaml 5.1.1): normalised figures read as wall time on a host running
   at that speed. *)
let nominal_ns = 0.9e6

(* Runs within [slack] of a window count towards its speed. *)
let slack = 1e9

let factor ~from ~until =
  let inside = ref [] in
  for i = 0 to !n - 1 do
    let t = !ts.(i) in
    if t >= from -. slack && t <= until +. slack then inside := !ys.(i) :: !inside
  done;
  match !inside with
  | [] -> 1.
  | ys -> nominal_ns /. Snorlax_util.Stats.percentile ys ~p:50.

(* Every run as [end_ns, duration_ns], for the result artifact. *)
let series () =
  Obs.Json.List
    (List.init !n (fun i -> Obs.Json.List [ Obs.Json.Float !ts.(i); Obs.Json.Float !ys.(i) ]))
