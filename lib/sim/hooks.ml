type control_event =
  | Thread_start of { tid : int; entry_pc : int }
  | Cond_branch of { tid : int; pc : int; taken : bool }
  | Ret_branch of { tid : int; target_pc : int option }
  | Thread_exit of { tid : int }

type sched_event =
  | Switch of { prev_tid : int option; next_tid : int; time : float }
  | Contended of { tid : int; addr : int; time : float }
  | Unblocked of { tid : int; parked_ns : float; time : float }

type access_kind = Read | Write | Free

type obs_event =
  | Obs_access of
      { tid : int; iid : int; addr : int; size : int; kind : access_kind;
        time : float }
  | Obs_lock_attempt of { tid : int; iid : int; addr : int; time : float }
  | Obs_lock_acquired of { tid : int; iid : int; addr : int; time : float }
  | Obs_lock_released of { tid : int; iid : int; addr : int; time : float }
  | Obs_cond_park of
      { tid : int; iid : int; cond : int; mutex : int; time : float }
  | Obs_cond_wake of
      { waker_tid : int; woken_tid : int; cond : int; time : float }
  | Obs_spawn of { parent_tid : int; child_tid : int; iid : int; time : float }
  | Obs_join of { tid : int; target_tid : int; iid : int; time : float }

type watch = {
  mutable pcs : int array;
  on_hit : tid:int -> time:float -> pc:int -> unit;
}

type t = {
  on_control : (time:float -> control_event -> float) option;
  on_instr : (tid:int -> time:float -> Lir.Instr.t -> float) option;
  gate : (tid:int -> time:float -> Lir.Instr.t -> float) option;
  on_sched : (sched_event -> unit) option;
  on_obs : (obs_event -> unit) option;
  watch : watch list;
}

let none =
  { on_control = None; on_instr = None; gate = None; on_sched = None;
    on_obs = None; watch = [] }

let combine a b =
  let on_control =
    match a.on_control, b.on_control with
    | None, f | f, None -> f
    | Some f, Some g -> Some (fun ~time e -> f ~time e +. g ~time e)
  in
  let on_instr =
    match a.on_instr, b.on_instr with
    | None, f | f, None -> f
    | Some f, Some g -> Some (fun ~tid ~time i -> f ~tid ~time i +. g ~tid ~time i)
  in
  let gate =
    match a.gate, b.gate with
    | None, f | f, None -> f
    | Some f, Some g ->
      (* Both gates must agree to proceed; the longer stall wins. *)
      Some (fun ~tid ~time i -> Float.max (f ~tid ~time i) (g ~tid ~time i))
  in
  let on_sched =
    match a.on_sched, b.on_sched with
    | None, f | f, None -> f
    | Some f, Some g -> Some (fun e -> f e; g e)
  in
  let on_obs =
    match a.on_obs, b.on_obs with
    | None, f | f, None -> f
    | Some f, Some g -> Some (fun e -> f e; g e)
  in
  { on_control; on_instr; gate; on_sched; on_obs; watch = a.watch @ b.watch }

let control_event_tid = function
  | Thread_start { tid; _ } -> tid
  | Cond_branch { tid; _ } -> tid
  | Ret_branch { tid; _ } -> tid
  | Thread_exit { tid } -> tid
