(* One mutex guards everything; [work] wakes workers when a batch (or
   shutdown) arrives, [finished] wakes waiters whenever an item completes.
   Workers pull indices from the batch cursor, so uneven item costs
   balance automatically.  A batch failure cancels the unclaimed rest of
   the cursor: one poisoned item fails the batch fast instead of burning
   the remaining items. *)

type batch = {
  f : int -> unit;
  n : int;
  mutable next : int;  (* first unclaimed index *)
  mutable completed : int;  (* items finished or cancelled *)
  mutable item_done : Bytes.t;  (* per-item completion, for [wait_item] *)
  mutable failure : exn option;  (* first exception, re-raised by [await] *)
}

type handle = batch

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
  Bytes.unsafe_set b.item_done i '\001';
  b.completed <- b.completed + 1;
  Condition.broadcast t.finished

let work_on t b =
  while b.next < b.n do
    run_one t b
  done

let worker t =
  Mutex.lock t.m;
  let rec loop () =
    if t.stop then Mutex.unlock t.m
    else
      match t.current with
      | Some b when b.next < b.n ->
        work_on t b;
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

let submit t n f =
  let n = max 0 n in
  let b =
    { f; n; next = 0; completed = 0; item_done = Bytes.make (max 1 n) '\000';
      failure = None }
  in
  if n > 0 then begin
    Mutex.lock t.m;
    if t.current <> None then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit: a batch is already in flight"
    end;
    t.current <- Some b;
    Condition.broadcast t.work;
    Mutex.unlock t.m
  end;
  b

let wait_item t b i =
  if i < 0 || i >= b.n then invalid_arg "Pool.wait_item: index out of range";
  Mutex.lock t.m;
  let rec loop () =
    if Bytes.unsafe_get b.item_done i = '\001' || b.failure <> None then ()
    else if b.next < b.n then begin
      (* Help: run an item instead of blocking, so a waiting submitter is
         a full participant while its target is still queued. *)
      run_one t b;
      loop ()
    end
    else begin
      Condition.wait t.finished t.m;
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.m

let await t b =
  Mutex.lock t.m;
  while b.completed < b.n do
    if b.next < b.n then run_one t b else Condition.wait t.finished t.m
  done;
  (match t.current with
  | Some cur when cur == b -> t.current <- None
  | Some _ | None -> ());
  Mutex.unlock t.m;
  match b.failure with Some e -> raise e | None -> ()

let run_inline n f =
  let failure = ref None in
  (try
     for i = 0 to n - 1 do
       f i
     done
   with e -> failure := Some e);
  match !failure with Some e -> raise e | None -> ()

let run t n f =
  if n > 0 then
    if t.domains = [] then run_inline n f
    else begin
      let b = submit t n f in
      await t b
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

(* --- cost-balanced chunking ---------------------------------------------- *)

let balanced_chunks ~weights ~chunks =
  let n = Array.length weights in
  let k = max 1 (min chunks n) in
  if n = 0 then [||]
  else begin
    (* Greedy LPT: place items heaviest-first onto the least-loaded chunk.
       Deterministic: ties break toward the lower index / lower chunk. *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare weights.(b) weights.(a) with
        | 0 -> compare a b
        | c -> c)
      order;
    let loads = Array.make k 0 in
    let members = Array.make k [] in
    Array.iter
      (fun i ->
        let best = ref 0 in
        for c = 1 to k - 1 do
          if loads.(c) < loads.(!best) then best := c
        done;
        loads.(!best) <- loads.(!best) + weights.(i);
        members.(!best) <- i :: members.(!best))
      order;
    (* Drop empty chunks (possible when many zero weights collapse). *)
    Array.of_list
      (List.filter_map
         (fun l -> if l = [] then None else Some (Array.of_list (List.rev l)))
         (Array.to_list members))
  end

(* --- scoped dedicated pools ---------------------------------------------- *)

let lanes ~jobs n = min (min (max 1 jobs) (Domain.recommended_domain_count ())) n

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- process-wide default and shared pool -------------------------------- *)

let default = Atomic.make (Domain.recommended_domain_count ())

(* Per-domain override of the process default: a sweep or shard worker
   that is itself one lane of a fan-out wraps its work in
   [with_default_jobs 1], and every nested [process ?jobs:None] call it
   makes resolves to sequential decode instead of fighting over (or
   double-submitting into) the shared pool from multiple domains. *)
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

(* Only the main domain mutates [shared] (worker domains run under
   [with_default_jobs 1] and the sequential decode path never calls
   [get]), so a plain ref suffices. *)
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
