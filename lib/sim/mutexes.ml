(* [owner] is -1 while the mutex is free: a plain int keeps lock and
   unlock from allocating an option per call. *)
type mutex = { mutable owner : int; waiters : int Queue.t }

type t = {
  locks : (int, mutex) Hashtbl.t;
  waits : (int, int) Hashtbl.t; (* tid -> lock addr it is queued on *)
}

type lock_result = Acquired | Relocked | Blocked | Deadlocked of int list
type unlock_error = Not_owner of int | Not_locked

let create () = { locks = Hashtbl.create 16; waits = Hashtbl.create 16 }

let get t addr =
  match Hashtbl.find t.locks addr with
  | m -> m
  | exception Not_found ->
    let m = { owner = -1; waiters = Queue.create () } in
    Hashtbl.add t.locks addr m;
    m

(* Follow owner-of(waiting-on(...)) links from [start]; a return to [tid]
   closes a deadlock cycle. *)
let find_cycle t ~tid ~start =
  let rec follow current acc =
    if current = tid then Some (List.rev acc)
    else
      match Hashtbl.find_opt t.waits current with
      | None -> None
      | Some addr -> (
        match (Hashtbl.find t.locks addr).owner with
        | -1 -> None
        | next -> follow next (next :: acc))
  in
  follow start [ start ]

let lock t ~addr ~tid =
  let m = get t addr in
  match m.owner with
  | -1 ->
    m.owner <- tid;
    Acquired
  | owner when owner = tid ->
    (* A self-relock is an API misuse, not a wait-for cycle: queueing the
       owner behind itself would have reported a one-thread "deadlock". *)
    Relocked
  | owner -> (
    match find_cycle t ~tid ~start:owner with
    | Some cycle -> Deadlocked (cycle @ [ tid ])
    | None ->
      Queue.add tid m.waiters;
      Hashtbl.replace t.waits tid addr;
      Blocked)

let unlock t ~addr ~tid =
  let m = get t addr in
  match m.owner with
  | -1 -> Error Not_locked
  | owner when owner = tid ->
    if Queue.is_empty m.waiters then begin
      m.owner <- -1;
      Ok None
    end
    else begin
      let next = Queue.pop m.waiters in
      Hashtbl.remove t.waits next;
      m.owner <- next;
      Ok (Some next)
    end
  | owner -> Error (Not_owner owner)

let holder t ~addr =
  match Hashtbl.find_opt t.locks addr with
  | None | Some { owner = -1; _ } -> None
  | Some m -> Some m.owner

let waiting_on t ~tid = Hashtbl.find_opt t.waits tid
