module Prng = Snorlax_util.Prng
module L = Lir.Lowered

type outcome =
  | Completed
  | Failed of { failure : Failure.t; time_ns : float }
  | Stuck
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  final_time_ns : float;
  steps : int;
  output : int list;
  threads_spawned : int;
}

type config = { seed : int; max_steps : int; hooks : Hooks.t; cost_scale : float }

let default_config =
  { seed = 1; max_steps = 20_000_000; hooks = Hooks.none; cost_scale = 1.0 }

(* Base instruction costs in nanoseconds, loosely calibrated to a modern
   out-of-order core so that corpus delays in the 100 us range dominate. *)
module Cost = struct
  let arith = 0.8
  let load = 2.0
  let store = 2.0
  let alloca = 1.5
  let branch = 1.2
  let call = 4.0
  let ret = 3.0
  let intrinsic = 6.0
  let malloc = 40.0
  let mutex = 14.0
  let thread_spawn = 2500.0
  let wake = 180.0
  let join = 20.0
end

type status =
  | Runnable
  | Blocked_mutex of { addr : int; call_iid : int; since : float }
  | Blocked_cond of { addr : int; since : float }
  | Blocked_join of { target : int; call_iid : int; since : float }
  | Finished

(* Registers live in dense slots.  Any int is a legal register value, so
   no sentinel can mark a slot as unwritten: [defined] tracks the slots
   this frame has written, and reading any other is an undefined read. *)
type frame = {
  blocks : L.instr array array;
  mutable code : L.instr array;
  mutable idx : int;
  regs : int array;
  defined : Bytes.t;
  stack_mark : int;
  ret_dst : int; (* caller slot receiving our result; -1 for none *)
}

(* A one-field float record is stored flat, so advancing a clock writes
   the float in place; a float field of the mixed [thread] record would
   box a fresh value on every step. *)
type clock = { mutable ns : float }

type thread = {
  tid : int;
  mutable stack : frame list;
  mutable status : status;
  clock : clock;
  mutable pending_ret_pc : int;
      (* return-target of a blocking intrinsic call, traced on wake; -1
         for none *)
}

type state = {
  m : Lir.Irmod.t;
  image : L.t;
  gaddr : int array; (* address of each of [image.globals] *)
  cfg : config;
  hooks : Hooks.t;
  (* Every watched pc of every [hooks.watch], and the watch it belongs
     to: one flat array the step loop scans in place. *)
  watch_pcs : int array;
  watch_of : Hooks.watch array;
  mem : Memory.t;
  mutexes : Mutexes.t;
  condvars : Condvars.t;
  mutable threads : thread array; (* indexed by tid; [next_tid] live *)
  mutable next_tid : int;
  prng : Prng.t;
  mutable failure : (Failure.t * float) option;
  mutable steps : int;
  mutable output_rev : int list;
  joiners : (int, int list ref) Hashtbl.t; (* target tid -> waiting tids *)
}

exception Sim_failure

(* [uniform st bound] is [Prng.float st.prng ~bound] bit for bit,
   scaled here from the int draw so no boxed float crosses the module
   boundary. *)
let[@inline] uniform st bound =
  float_of_int (Prng.bits53 st.prng) /. 9007199254740992.0 *. bound

let[@inline] jitter st base =
  base *. st.cfg.cost_scale *. (0.85 +. uniform st 0.3)

(* Explicit delays (work/io waits) model I/O, network and preemption
   noise; their +/-5% jitter is what makes thread interleavings vary from
   seed to seed, so a bug manifests in some runs and not in others. *)
let[@inline] delay_jitter st ns = ns *. (0.95 +. uniform st 0.10)

let advance st th base = th.clock.ns <- th.clock.ns +. jitter st base

(* A hook's cost of exactly 0.0 leaves the clock alone, which is
   bit-identical to adding it: clocks are never -0.0. *)
let[@inline] charge th cost =
  if cost <> 0.0 then th.clock.ns <- th.clock.ns +. cost

let set_reg frame slot v =
  Array.unsafe_set frame.regs slot v;
  Bytes.unsafe_set frame.defined slot '\001'

(* A malformed call fails with the host exceptions validation reports by
   message: an arity mismatch as [List.iter2]'s, checked before a
   body-less callee as [Func.entry]'s. *)
let push_frame st th (f : L.func) ~(args : int array) ~ret_dst =
  let body = L.body st.image f in
  if Array.length args <> Array.length body.L.params then
    invalid_arg "List.iter2";
  if Array.length body.L.blocks = 0 then ignore (Lir.Func.entry f.L.fn);
  let frame =
    {
      blocks = body.L.blocks;
      code = body.L.blocks.(0);
      idx = 0;
      regs = Array.make body.L.slots 0;
      defined = Bytes.make body.L.slots '\000';
      stack_mark = Memory.frame_mark st.mem ~tid:th.tid;
      ret_dst;
    }
  in
  let params = body.L.params in
  for k = 0 to Array.length params - 1 do
    set_reg frame params.(k) args.(k)
  done;
  th.stack <- frame :: th.stack

let spawn_thread st (f : L.func) ~arg ~start_clock =
  let tid = st.next_tid in
  st.next_tid <- tid + 1;
  let th =
    { tid; stack = []; status = Runnable; clock = { ns = start_clock };
      pending_ret_pc = -1 }
  in
  if tid >= Array.length st.threads then begin
    let grown = Array.make (max 8 (2 * tid)) th in
    Array.blit st.threads 0 grown 0 tid;
    st.threads <- grown
  end;
  st.threads.(tid) <- th;
  let args =
    match List.length f.L.fn.Lir.Func.params with
    | 0 -> [||]
    | 1 -> [| arg |]
    | n -> Array.make n 0
  in
  push_frame st th f ~args ~ret_dst:(-1);
  th

(* Hook events are built only when their hook is set: the hot ones
   (branches, returns, accesses) have their own firing functions, and
   every other site tests [observing]/[scheduling] before it builds. *)
let fire_control st th event =
  match st.hooks.Hooks.on_control with
  | None -> ()
  | Some f -> charge th (f ~time:th.clock.ns event)

let fire_cond_branch st th ~pc ~taken =
  match st.hooks.Hooks.on_control with
  | None -> ()
  | Some f ->
    charge th
      (f ~time:th.clock.ns (Hooks.Cond_branch { tid = th.tid; pc; taken }))

(* A return to [target], or the entry function's return for -1. *)
let fire_ret st th target =
  match st.hooks.Hooks.on_control with
  | None -> ()
  | Some f ->
    let target_pc = if target < 0 then None else Some target in
    charge th
      (f ~time:th.clock.ns (Hooks.Ret_branch { tid = th.tid; target_pc }))

(* A woken thread's blocking call returns: trace its pending return. *)
let fire_pending_ret st w =
  let pc = w.pending_ret_pc in
  if pc >= 0 then begin
    w.pending_ret_pc <- -1;
    fire_ret st w pc
  end

let fire_instr st th (i : Lir.Instr.t) =
  match st.hooks.Hooks.on_instr with
  | None -> ()
  | Some f -> charge th (f ~tid:th.tid ~time:th.clock.ns i)

let check_watch st th pc =
  let pcs = st.watch_pcs in
  for k = 0 to Array.length pcs - 1 do
    if Array.unsafe_get pcs k = pc then
      st.watch_of.(k).Hooks.on_hit ~tid:th.tid ~time:th.clock.ns ~pc
  done

let[@inline] scheduling st = Option.is_some st.hooks.Hooks.on_sched
let[@inline] observing st = Option.is_some st.hooks.Hooks.on_obs

let fire_sched st event =
  match st.hooks.Hooks.on_sched with None -> () | Some f -> f event

let fire_obs st event =
  match st.hooks.Hooks.on_obs with None -> () | Some f -> f event

let fire_access st th (i : Lir.Instr.t) ~addr ~size ~kind =
  match st.hooks.Hooks.on_access with
  | None -> ()
  | Some f -> f ~tid:th.tid ~iid:i.Lir.Instr.iid ~addr ~size ~kind

(* A blocked thread just became runnable: report how long it was parked.
   [since] is when it blocked; its clock was already advanced to the wake
   time by the caller. *)
let fire_unblocked st (th : thread) ~since =
  if scheduling st then
    fire_sched st
      (Hooks.Unblocked
         { tid = th.tid; parked_ns = th.clock.ns -. since; time = th.clock.ns })

let blocked_since (th : thread) =
  match th.status with
  | Blocked_mutex { since; _ } | Blocked_cond { since; _ }
  | Blocked_join { since; _ } ->
    Some since
  | Runnable | Finished -> None

let set_failure st th failure =
  st.failure <- Some (failure, th.clock.ns);
  raise Sim_failure

let crash st th (i : Lir.Instr.t) err addr =
  let reason =
    match (err : Memory.access_error) with
    | Memory.Null -> Failure.Null_deref
    | Memory.Freed -> Failure.Use_after_free
    | Memory.Unmapped -> Failure.Unmapped
  in
  set_failure st th
    (Failure.Crash
       { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; reason; addr })

(* A release handed the mutex at [addr] to [next]: wake it at the
   releaser's time plus the wake cost, emit its acquire observation
   (attributed to the lock call that parked it), and trace the pending
   return of that call. *)
let grant_mutex st th ~addr next =
  let w = st.threads.(next) in
  let since = blocked_since w in
  let call_iid =
    match w.status with
    | Blocked_mutex { call_iid; _ } -> Some call_iid
    | Runnable | Blocked_cond _ | Blocked_join _ | Finished -> None
  in
  w.status <- Runnable;
  w.clock.ns <- Float.max w.clock.ns th.clock.ns +. jitter st Cost.wake;
  (match since with Some s -> fire_unblocked st w ~since:s | None -> ());
  (match call_iid with
  | Some iid when observing st ->
    fire_obs st
      (Hooks.Obs_lock_acquired { tid = w.tid; iid; addr; time = w.clock.ns })
  | Some _ | None -> ());
  fire_pending_ret st w

(* (tid, blocked call iid, lock addr) for each cycle member; [closer] is
   the thread whose lock attempt closed the cycle and goes last. *)
let deadlock_waiters st ~closer cycle =
  let closer_tid, closer_iid, closer_addr = closer in
  let waiter_of tid =
    if tid = closer_tid then closer
    else
      let other = st.threads.(tid) in
      match other.status with
      | Blocked_mutex { addr; call_iid; _ } -> (tid, call_iid, addr)
      | Runnable | Blocked_cond _ | Blocked_join _ | Finished ->
        (tid, closer_iid, closer_addr)
  in
  let others = List.filter (fun t -> t <> closer_tid) cycle in
  List.map waiter_of others @ [ closer ]

(* Raised by [eval] where no thread/instruction context is at hand;
   [step] catches it and converts it to a structured [Failure.Undef_read]
   attributed to the instruction that performed the read. *)
exception Undef_register of string

let eval st frame (v : L.operand) =
  match v with
  | L.Slot (s, rname) ->
    if Bytes.unsafe_get frame.defined s = '\001' then
      Array.unsafe_get frame.regs s
    else raise (Undef_register rname)
  | L.Const c -> c
  | L.Global g -> st.gaddr.(g)
  | L.Raise e -> raise e

(* A negative block index is a label the function does not define. *)
let goto frame block =
  if block < 0 then raise Not_found;
  frame.code <- frame.blocks.(block);
  frame.idx <- 0

(* Return from the current frame: pop, deliver the value (0 for a void
   return), resume caller.  With an empty remaining stack the thread
   exits. *)
let do_return st th value =
  match th.stack with
  | [] -> assert false
  | frame :: rest ->
    Memory.pop_frame st.mem ~tid:th.tid ~mark:frame.stack_mark;
    th.stack <- rest;
    (match rest with
    | [] ->
      fire_ret st th (-1);
      th.status <- Finished;
      fire_control st th (Hooks.Thread_exit { tid = th.tid });
      (* Wake joiners at our completion time. *)
      (match Hashtbl.find_opt st.joiners th.tid with
      | None -> ()
      | Some waiting ->
        List.iter
          (fun wtid ->
            let w = st.threads.(wtid) in
            let since = blocked_since w in
            let join_iid =
              match w.status with
              | Blocked_join { call_iid; _ } -> Some call_iid
              | Runnable | Blocked_mutex _ | Blocked_cond _ | Finished -> None
            in
            w.status <- Runnable;
            w.clock.ns <- Float.max w.clock.ns th.clock.ns +. Cost.join;
            (match since with
            | Some s -> fire_unblocked st w ~since:s
            | None -> ());
            (match join_iid with
            | Some iid when observing st ->
              fire_obs st
                (Hooks.Obs_join
                   { tid = w.tid; target_tid = th.tid; iid; time = w.clock.ns })
            | Some _ | None -> ());
            fire_pending_ret st w)
          !waiting;
        Hashtbl.remove st.joiners th.tid)
    | caller :: _ ->
      let target = caller.code.(caller.idx).L.src in
      fire_ret st th target.Lir.Instr.pc;
      if frame.ret_dst >= 0 then set_reg caller frame.ret_dst value)

(* Zero divisors never reach here: [step] turns them into a structured
   [Failure.Arith_fault] before dispatching, with the faulting thread and
   instruction in hand. *)
let exec_binop op a b =
  match (op : Lir.Instr.binop) with
  | Lir.Instr.Add -> a + b
  | Lir.Instr.Sub -> a - b
  | Lir.Instr.Mul -> a * b
  | Lir.Instr.Sdiv -> a / b
  | Lir.Instr.Srem -> a mod b
  | Lir.Instr.And -> a land b
  | Lir.Instr.Or -> a lor b
  | Lir.Instr.Xor -> a lxor b
  | Lir.Instr.Shl -> a lsl b
  | Lir.Instr.Lshr -> a lsr b

let exec_icmp cmp a b =
  let r =
    match (cmp : Lir.Instr.icmp) with
    | Lir.Instr.Eq -> a = b
    | Lir.Instr.Ne -> a <> b
    | Lir.Instr.Slt -> a < b
    | Lir.Instr.Sle -> a <= b
    | Lir.Instr.Sgt -> a > b
    | Lir.Instr.Sge -> a >= b
  in
  if r then 1 else 0

(* A call with too few arguments fails at the first missing argument,
   with [List.nth]'s exception (validation reports it by message). *)
let arg st frame args n =
  if n < Array.length args then eval st frame args.(n) else failwith "nth"

let return frame dst v = if dst >= 0 then set_reg frame dst v

let exec_intrinsic st th frame (i : Lir.Instr.t) dst code args =
  match (code : L.intrinsic) with
  | L.Malloc ->
    advance st th Cost.malloc;
    return frame dst (Memory.alloc_heap st.mem ~size:(arg st frame args 0))
  | L.Free -> (
    advance st th Cost.malloc;
    let addr = arg st frame args 0 in
    (* Observed before the free so the block extent is still known: a free
       invalidates every byte of the allocation, i.e. writes the range. *)
    (match st.hooks.Hooks.on_access with
    | None -> ()
    | Some _ ->
      let size =
        match Memory.heap_block_size st.mem addr with
        | Some s -> max 1 s
        | None -> 1
      in
      fire_access st th i ~addr ~size ~kind:Hooks.Free);
    match Memory.free_heap st.mem addr with
    | Ok () -> ()
    | Error err -> crash st th i err addr)
  | L.Mutex_init | L.Cond_init -> advance st th Cost.intrinsic
  | L.Mutex_lock -> (
    advance st th Cost.mutex;
    let addr = arg st frame args 0 in
    if observing st then
      fire_obs st
        (Hooks.Obs_lock_attempt
           { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock.ns });
    match Mutexes.lock st.mutexes ~addr ~tid:th.tid with
    | Mutexes.Acquired ->
      if observing st then
        fire_obs st
          (Hooks.Obs_lock_acquired
             { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock.ns })
    | Mutexes.Relocked ->
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; addr;
             misuse = Failure.Relock })
    | Mutexes.Blocked ->
      th.status <-
        Blocked_mutex { addr; call_iid = i.Lir.Instr.iid; since = th.clock.ns };
      if scheduling st then
        fire_sched st
          (Hooks.Contended { tid = th.tid; addr; time = th.clock.ns })
    | Mutexes.Deadlocked cycle ->
      let closer = (th.tid, i.Lir.Instr.iid, addr) in
      set_failure st th
        (Failure.Deadlock { waiters = deadlock_waiters st ~closer cycle }))
  | L.Mutex_unlock -> (
    advance st th Cost.mutex;
    let addr = arg st frame args 0 in
    match Mutexes.unlock st.mutexes ~addr ~tid:th.tid with
    | Error err ->
      let misuse =
        match err with
        | Mutexes.Not_owner _ -> Failure.Unlock_unowned
        | Mutexes.Not_locked -> Failure.Unlock_free
      in
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; addr;
             misuse })
    | Ok next ->
      if observing st then
        fire_obs st
          (Hooks.Obs_lock_released
             { tid = th.tid; iid = i.Lir.Instr.iid; addr; time = th.clock.ns });
      (match next with
      | None -> ()
      | Some next -> grant_mutex st th ~addr next))
  | L.Cond_wait ->
    advance st th Cost.mutex;
    let cond_addr = arg st frame args 0 and mutex_addr = arg st frame args 1 in
    (* Atomically release the mutex and park on the condition. *)
    (match Mutexes.unlock st.mutexes ~addr:mutex_addr ~tid:th.tid with
    | Error _ ->
      set_failure st th
        (Failure.Lock_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             addr = mutex_addr; misuse = Failure.Wait_unlocked })
    | Ok next ->
      if observing st then
        fire_obs st
          (Hooks.Obs_lock_released
             { tid = th.tid; iid = i.Lir.Instr.iid; addr = mutex_addr;
               time = th.clock.ns });
      (match next with
      | None -> ()
      | Some next -> grant_mutex st th ~addr:mutex_addr next));
    Condvars.wait st.condvars ~addr:cond_addr ~tid:th.tid ~mutex_addr
      ~call_iid:i.Lir.Instr.iid;
    if observing st then
      fire_obs st
        (Hooks.Obs_cond_park
           { tid = th.tid; iid = i.Lir.Instr.iid; cond = cond_addr;
             mutex = mutex_addr; time = th.clock.ns });
    th.status <- Blocked_cond { addr = cond_addr; since = th.clock.ns }
  | L.Cond_signal | L.Cond_broadcast ->
    advance st th Cost.mutex;
    let cond_addr = arg st frame args 0 in
    let woken =
      if code = L.Cond_signal then
        match Condvars.signal st.condvars ~addr:cond_addr with
        | Some w -> [ w ]
        | None -> []
      else Condvars.broadcast st.condvars ~addr:cond_addr
    in
    List.iter
      (fun (wtid, mutex_addr, wait_iid) ->
        let w = st.threads.(wtid) in
        let since = blocked_since w in
        w.clock.ns <- Float.max w.clock.ns th.clock.ns +. jitter st Cost.wake;
        (match since with Some s -> fire_unblocked st w ~since:s | None -> ());
        if observing st then
          fire_obs st
            (Hooks.Obs_cond_wake
               { waker_tid = th.tid; woken_tid = wtid; cond = cond_addr;
                 time = w.clock.ns });
        (* The woken thread re-acquires its mutex before cond_wait
           returns; it may block again right here.  Everything below is
           the waiter's own work, attributed to its cond_wait call. *)
        if observing st then
          fire_obs st
            (Hooks.Obs_lock_attempt
               { tid = wtid; iid = wait_iid; addr = mutex_addr;
                 time = w.clock.ns });
        match Mutexes.lock st.mutexes ~addr:mutex_addr ~tid:wtid with
        | Mutexes.Acquired ->
          w.status <- Runnable;
          if observing st then
            fire_obs st
              (Hooks.Obs_lock_acquired
                 { tid = wtid; iid = wait_iid; addr = mutex_addr;
                   time = w.clock.ns });
          fire_pending_ret st w
        | Mutexes.Relocked ->
          (* Unreachable: the waiter released this mutex when it parked. *)
          set_failure st th
            (Failure.Lock_misuse
               { tid = wtid; iid = wait_iid;
                 pc = (Lir.Irmod.instr_by_iid st.m wait_iid).Lir.Instr.pc;
                 addr = mutex_addr; misuse = Failure.Relock })
        | Mutexes.Blocked ->
          w.status <-
            Blocked_mutex
              { addr = mutex_addr; call_iid = wait_iid; since = w.clock.ns };
          if scheduling st then
            fire_sched st
              (Hooks.Contended
                 { tid = wtid; addr = mutex_addr; time = w.clock.ns })
        | Mutexes.Deadlocked cycle ->
          (* A waiter woken while holding other locks can close a real
             wait-for cycle here (it parked with those locks held). *)
          let closer = (wtid, wait_iid, mutex_addr) in
          set_failure st w
            (Failure.Deadlock { waiters = deadlock_waiters st ~closer cycle }))
      woken
  | L.Thread_create -> (
    advance st th Cost.thread_spawn;
    let fn_pc = arg st frame args 0 and a = arg st frame args 1 in
    match L.func_at_entry_pc st.image fn_pc with
    | None ->
      set_failure st th
        (Failure.Thread_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             misuse = Failure.Create_not_function })
    | Some f ->
      let child = spawn_thread st f ~arg:a ~start_clock:th.clock.ns in
      fire_control st child
        (Hooks.Thread_start { tid = child.tid; entry_pc = fn_pc });
      if observing st then
        fire_obs st
          (Hooks.Obs_spawn
             { parent_tid = th.tid; child_tid = child.tid;
               iid = i.Lir.Instr.iid;
               time = th.clock.ns });
      return frame dst child.tid)
  | L.Thread_join -> (
    advance st th Cost.join;
    let target = arg st frame args 0 in
    let known = target >= 0 && target < st.next_tid in
    match if known then Some st.threads.(target) else None with
    | None ->
      set_failure st th
        (Failure.Thread_misuse
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc;
             misuse = Failure.Join_unknown })
    | Some tgt ->
      if tgt.status = Finished then begin
        if observing st then
          fire_obs st
            (Hooks.Obs_join
               { tid = th.tid; target_tid = target; iid = i.Lir.Instr.iid;
                 time = th.clock.ns })
      end
      else begin
        th.status <-
          Blocked_join
            { target; call_iid = i.Lir.Instr.iid; since = th.clock.ns };
        let waiting =
          match Hashtbl.find_opt st.joiners target with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add st.joiners target l;
            l
        in
        waiting := th.tid :: !waiting
      end)
  | L.Work | L.Io_delay ->
    th.clock.ns <-
      th.clock.ns +. delay_jitter st (float_of_int (arg st frame args 0))
  | L.Assert_true ->
    advance st th Cost.intrinsic;
    if arg st frame args 0 = 0 then
      set_failure st th
        (Failure.Assert_fail { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc })
  | L.Print_i64 ->
    advance st th Cost.intrinsic;
    st.output_rev <- arg st frame args 0 :: st.output_rev
  | L.Rand ->
    advance st th Cost.intrinsic;
    return frame dst (Prng.int st.prng ~bound:(max 1 (arg st frame args 0)))

exception Gated

(* A positive gate verdict parks the thread without executing; the
   scheduler will run whoever is now earliest and retry this thread
   later. *)
let check_gate st th (i : Lir.Instr.t) =
  match st.hooks.Hooks.gate with
  | None -> ()
  | Some g ->
    let stall = g ~tid:th.tid ~time:th.clock.ns i in
    if stall > 0.0 then begin
      th.clock.ns <- th.clock.ns +. stall;
      st.steps <- st.steps + 1;
      raise Gated
    end

let step st th =
  let frame =
    match th.stack with
    | f :: _ -> f
    | [] -> assert false
  in
  let li = frame.code.(frame.idx) in
  let i = li.L.src in
  check_gate st th i;
  if Array.length st.watch_pcs > 0 then check_watch st th i.Lir.Instr.pc;
  fire_instr st th i;
  st.steps <- st.steps + 1;
  (* Advance past the instruction first so that calls and blocking
     operations resume at the right place. *)
  frame.idx <- frame.idx + 1;
  try
    match li.L.op with
  | L.Alloca { dst; size } ->
    advance st th Cost.alloca;
    set_reg frame dst (Memory.alloc_stack st.mem ~tid:th.tid ~size)
  | L.Load { dst; ptr; size } -> (
    advance st th Cost.load;
    let addr = eval st frame ptr in
    (* Observed before the memory check so crashing accesses appear in the
       stream too — the oracle wants the access that faulted. *)
    fire_access st th i ~addr ~size ~kind:Hooks.Read;
    match Memory.load st.mem ~addr with
    | v -> set_reg frame dst v
    | exception Memory.Fault err -> crash st th i err addr)
  | L.Store { value; ptr; size } -> (
    advance st th Cost.store;
    let addr = eval st frame ptr in
    let v = eval st frame value in
    fire_access st th i ~addr ~size ~kind:Hooks.Write;
    match Memory.store st.mem ~addr ~value:v with
    | () -> ()
    | exception Memory.Fault err -> crash st th i err addr)
  | L.Binop { dst; op; lhs; rhs } -> (
    advance st th Cost.arith;
    let a = eval st frame lhs in
    let b = eval st frame rhs in
    match op with
    | (Lir.Instr.Sdiv | Lir.Instr.Srem) when b = 0 ->
      let fault =
        if op = Lir.Instr.Sdiv then Failure.Div_by_zero
        else Failure.Rem_by_zero
      in
      set_failure st th
        (Failure.Arith_fault
           { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; fault })
    | _ -> set_reg frame dst (exec_binop op a b))
  | L.Icmp { dst; cmp; lhs; rhs } ->
    advance st th Cost.arith;
    set_reg frame dst (exec_icmp cmp (eval st frame lhs) (eval st frame rhs))
  | L.Gep { dst; base; offset } ->
    advance st th Cost.arith;
    set_reg frame dst (eval st frame base + offset)
  | L.Index { dst; base; idx; esize } ->
    advance st th Cost.arith;
    set_reg frame dst (eval st frame base + (esize * eval st frame idx))
  | L.Cast { dst; src } ->
    advance st th Cost.arith;
    set_reg frame dst (eval st frame src)
  | L.Intrinsic { dst; code; args } -> (
    advance st th Cost.call;
    exec_intrinsic st th frame i dst code args;
    (* The library function's return is an indirect branch the hardware
       tracer records; blocking calls are recorded when they wake. *)
    match th.status with
    | Runnable -> fire_ret st th (i.Lir.Instr.pc + 4)
    | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ ->
      th.pending_ret_pc <- i.Lir.Instr.pc + 4
    | Finished -> ())
  | L.Call { dst; callee; args } ->
    advance st th Cost.call;
    (* Arguments evaluate left to right, so the first undefined one is
       the one reported. *)
    let argv = Array.make (Array.length args) 0 in
    for k = 0 to Array.length args - 1 do
      argv.(k) <- eval st frame args.(k)
    done;
    push_frame st th (L.funcs st.image).(callee) ~args:argv ~ret_dst:dst
  | L.Br target ->
    advance st th Cost.branch;
    goto frame target
  | L.Cond_br { cond; then_; else_ } ->
    advance st th Cost.branch;
    let taken = eval st frame cond <> 0 in
    fire_cond_branch st th ~pc:i.Lir.Instr.pc ~taken;
    goto frame (if taken then then_ else else_)
  | L.Ret v ->
    advance st th Cost.ret;
    let value = match v with Some op -> eval st frame op | None -> 0 in
    do_return st th value
  | L.Unreachable -> failwith "Interp: reached unreachable"
  | L.Malformed e ->
    (* Static resolution failed: charge what the instruction charged
       before its resolution step, then fail the same way. *)
    (match i.Lir.Instr.kind with
    | Lir.Instr.Alloca _ -> advance st th Cost.alloca
    | Lir.Instr.Call _ -> advance st th Cost.call
    | _ -> advance st th Cost.arith);
    raise e
  with Undef_register rname ->
    set_failure st th
      (Failure.Undef_read
         { tid = th.tid; iid = i.Lir.Instr.iid; pc = i.Lir.Instr.pc; rname })

(* The runnable thread with the smallest (clock, tid), or -1: scanning in
   tid order and replacing only on a strictly smaller clock keeps the
   lowest tid on a tie. *)
let pick_runnable st =
  let best = ref (-1) in
  let best_clock = ref 0.0 in
  for tid = 0 to st.next_tid - 1 do
    let th = Array.unsafe_get st.threads tid in
    match th.status with
    | Runnable ->
      if !best < 0 || th.clock.ns < !best_clock then begin
        best := tid;
        best_clock := th.clock.ns
      end
    | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ | Finished -> ()
  done;
  !best

let any_blocked st =
  let blocked = ref false in
  for tid = 0 to st.next_tid - 1 do
    match st.threads.(tid).status with
    | Blocked_mutex _ | Blocked_cond _ | Blocked_join _ -> blocked := true
    | Runnable | Finished -> ()
  done;
  !blocked

let final_time st =
  let t = ref 0.0 in
  for tid = 0 to st.next_tid - 1 do
    t := Float.max !t st.threads.(tid).clock.ns
  done;
  !t

let run ?(config = default_config) m ~entry =
  let image = L.of_module m in
  let mem = Memory.create () in
  Memory.load_globals mem m;
  let hooks = config.hooks in
  let watched =
    List.concat_map
      (fun (w : Hooks.watch) ->
        List.map (fun pc -> (pc, w)) (Array.to_list w.pcs))
      hooks.Hooks.watch
  in
  let st =
    {
      m;
      image;
      gaddr = Array.map (Memory.global_addr mem) (L.globals image);
      cfg = config;
      hooks;
      watch_pcs = Array.of_list (List.map fst watched);
      watch_of = Array.of_list (List.map snd watched);
      mem;
      mutexes = Mutexes.create ();
      condvars = Condvars.create ();
      threads = [||];
      next_tid = 0;
      prng = Prng.create ~seed:config.seed;
      failure = None;
      steps = 0;
      output_rev = [];
      joiners = Hashtbl.create 8;
    }
  in
  let main_fn = L.find_func image entry in
  let main = spawn_thread st main_fn ~arg:0 ~start_clock:0.0 in
  fire_control st main
    (Hooks.Thread_start { tid = main.tid; entry_pc = main_fn.L.entry_pc });
  let outcome = ref None in
  (* -1 = no thread has run yet; a plain int keeps the per-step check an
     unboxed compare on the no-switch fast path. *)
  let last_tid = ref (-1) in
  (try
     while Option.is_none !outcome do
       if st.steps >= config.max_steps then outcome := Some Fuel_exhausted
       else
         let tid = pick_runnable st in
         if tid >= 0 then begin
           let th = st.threads.(tid) in
           if !last_tid <> th.tid then begin
             if scheduling st then
               fire_sched st
                 (Hooks.Switch
                    {
                      prev_tid =
                        (if !last_tid < 0 then None else Some !last_tid);
                      next_tid = th.tid;
                      time = th.clock.ns;
                    });
             last_tid := th.tid
           end;
           try step st th with Gated -> ()
         end
         else if any_blocked st then outcome := Some Stuck
         else outcome := Some Completed
     done
   with Sim_failure ->
     match st.failure with
     | Some (failure, time_ns) -> outcome := Some (Failed { failure; time_ns })
     | None -> assert false);
  let outcome =
    match !outcome with Some o -> o | None -> assert false
  in
  {
    outcome;
    final_time_ns = final_time st;
    steps = st.steps;
    output = List.rev st.output_rev;
    threads_spawned = st.next_tid;
  }
