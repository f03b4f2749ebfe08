(* One mutex guards everything; [work] wakes workers when a batch (or
   shutdown) arrives, [finished] wakes the submitter whenever an item
   completes.  Workers pull indices from the batch cursor, so uneven item
   costs balance automatically.  A batch failure cancels the unclaimed
   rest of the cursor: one poisoned item fails the batch fast instead of
   burning the remaining items. *)

type batch = {
  f : int -> unit;
  n : int;
  mutable next : int;  (* first unclaimed index *)
  mutable completed : int;  (* items finished or cancelled *)
  mutable failure : exn option;  (* first exception, re-raised by [run] *)
}

type t = {
  size : int;
  m : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable current : batch option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.size

(* Cancel every unclaimed item of [b]; claimed items already in flight on
   other domains still finish.  Called with [t.m] held. *)
let cancel_rest t b =
  let skipped = b.n - b.next in
  if skipped > 0 then begin
    b.next <- b.n;
    b.completed <- b.completed + skipped;
    if b.completed = b.n then Condition.broadcast t.finished
  end

(* Claim and run ONE item of [b].  Called with [t.m] held; holds it again
   on return. *)
let run_one t b =
  let i = b.next in
  b.next <- i + 1;
  Mutex.unlock t.m;
  (match b.f i with
  | () -> Mutex.lock t.m
  | exception e ->
    Mutex.lock t.m;
    if b.failure = None then b.failure <- Some e;
    cancel_rest t b);
  b.completed <- b.completed + 1;
  Condition.broadcast t.finished

let worker t =
  Mutex.lock t.m;
  let rec loop () =
    if t.stop then Mutex.unlock t.m
    else
      match t.current with
      | Some b when b.next < b.n ->
        run_one t b;
        loop ()
      | Some _ | None ->
        Condition.wait t.work t.m;
        loop ()
  in
  loop ()

let create ~jobs =
  let size = max 1 jobs in
  let t =
    {
      size;
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      current = None;
      stop = false;
      domains = [];
    }
  in
  if size > 1 then
    t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* Publish the batch, then take part in it: the submitting domain claims
   items like any worker and sleeps only when every item is claimed but
   some are still running elsewhere.  A one-job pool runs the plain loop
   on the caller. *)
let run t n f =
  if t.domains = [] then
    for i = 0 to n - 1 do
      f i
    done
  else if n > 0 then begin
    let b = { f; n; next = 0; completed = 0; failure = None } in
    Mutex.lock t.m;
    if t.current <> None then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.run: a batch is already in flight"
    end;
    t.current <- Some b;
    Condition.broadcast t.work;
    while b.completed < b.n do
      if b.next < b.n then run_one t b else Condition.wait t.finished t.m
    done;
    t.current <- None;
    Mutex.unlock t.m;
    Option.iter raise b.failure
  end

let map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run t n (fun i -> results.(i) <- Some (f i arr.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

(* --- scoped dedicated pools ---------------------------------------------- *)

let lanes ~jobs n = min (min (max 1 jobs) (Domain.recommended_domain_count ())) n

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- process-wide default and shared pool -------------------------------- *)

let default = Atomic.make (Domain.recommended_domain_count ())

(* Per-domain override of the process default: a sweep or shard-service
   lane wraps its work in [with_default_jobs 1], and every nested
   [process ?jobs:None] call it makes resolves to sequential decode
   instead of fighting over (or double-submitting into) the shared pool
   from multiple domains. *)
let override : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let default_jobs () =
  match !(Domain.DLS.get override) with
  | Some n -> n
  | None -> Atomic.get default

let set_default_jobs n = Atomic.set default (max 1 n)

let with_default_jobs n f =
  let slot = Domain.DLS.get override in
  let prev = !slot in
  slot := Some (max 1 n);
  Fun.protect ~finally:(fun () -> slot := prev) f

(* Only the main domain mutates [shared]: worker domains run under
   [with_default_jobs 1], so the decode they nest asks [get] for one job
   and gets [inline_pool] without touching the slot.  A plain ref
   suffices. *)
let shared : t option ref = ref None

(* A size-1 pool runs everything inline on the submitting domain; one
   cached instance serves every [get ~jobs:1] so sequential requests never
   borrow the (larger, parallel) shared pool by accident.  Eager, not
   lazy: [Lazy.force] is not domain-safe, and [get ~jobs:1] must be
   callable from any worker domain.  The instance spawns no domains and
   holds no batch state on the inline path, so sharing it is free. *)
let inline_pool = create ~jobs:1

let at_exit_registered = ref false

let get ~jobs =
  let jobs = max 1 jobs in
  if jobs = 1 then inline_pool
  else
    match !shared with
    | Some p when p.size >= jobs && p.stop = false -> p
    | prev ->
      Option.iter shutdown prev;
      let p = create ~jobs in
      shared := Some p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit (fun () -> Option.iter shutdown !shared)
      end;
      p
