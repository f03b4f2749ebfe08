module Tp = Trace_processing

type order_shape = WR | RW | WW

type atomicity_shape = RWR | WWR | RWW | WRW

type t =
  | Order of { remote_iid : int; anchor_iid : int; shape : order_shape }
  | Atomicity of {
      local_iid : int;
      remote_iid : int;
      anchor_iid : int;
      shape : atomicity_shape;
      guard_writes : int list;
    }
  | Deadlock_cycle of { sides : (int * int) list }

let order_shape_name = function WR -> "WR" | RW -> "RW" | WW -> "WW"

let atomicity_shape_name = function
  | RWR -> "RWR"
  | WWR -> "WWR"
  | RWW -> "RWW"
  | WRW -> "WRW"

let id = function
  | Order { remote_iid; anchor_iid; shape } ->
    Printf.sprintf "order:%s:%d->%d" (order_shape_name shape) remote_iid
      anchor_iid
  | Atomicity { local_iid; remote_iid; anchor_iid; shape; _ } ->
    Printf.sprintf "atom:%s:%d,%d,%d"
      (atomicity_shape_name shape)
      local_iid remote_iid anchor_iid
  | Deadlock_cycle { sides } ->
    "deadlock:"
    ^ String.concat "|"
        (List.map (fun (h, a) -> Printf.sprintf "%d,%d" h a) sides)

let ordered_iids = function
  | Order { remote_iid; anchor_iid; _ } -> [ remote_iid; anchor_iid ]
  | Atomicity { local_iid; remote_iid; anchor_iid; _ } ->
    [ local_iid; remote_iid; anchor_iid ]
  | Deadlock_cycle { sides } ->
    List.concat_map (fun (h, a) -> [ h; a ]) sides

let claimed_pairs = function
  | Order { remote_iid; anchor_iid; _ } -> [ (remote_iid, anchor_iid) ]
  | Atomicity { local_iid; remote_iid; anchor_iid; _ } ->
    [ (local_iid, remote_iid); (remote_iid, anchor_iid) ]
  | Deadlock_cycle _ -> []

let norm_pair (a, b) = if a <= b then (a, b) else (b, a)

let describe m p =
  let at iid = Lir.Printer.instr_with_location m iid in
  match p with
  | Order { remote_iid; anchor_iid; shape } ->
    Printf.sprintf "%s order violation:\n  1. %s\n  2. %s"
      (order_shape_name shape) (at remote_iid) (at anchor_iid)
  | Atomicity { local_iid; remote_iid; anchor_iid; shape; _ } ->
    Printf.sprintf "%s atomicity violation:\n  1. %s\n  2. %s\n  3. %s"
      (atomicity_shape_name shape)
      (at local_iid) (at remote_iid) (at anchor_iid)
  | Deadlock_cycle { sides } ->
    let part i (h, a) =
      Printf.sprintf "  thread %d: holds lock from %s\n            attempts %s"
        i (at h) (at a)
    in
    "deadlock cycle:\n" ^ String.concat "\n" (List.mapi part sides)

(* Cap on dynamic-instance scans; corpus loops stay well below this. *)
let instance_cap = 512

let capped xs =
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take instance_cap xs

let access_of_candidate candidates iid =
  List.find_opt (fun (c : Type_ranking.candidate) -> c.Type_ranking.iid = iid) candidates

(* --- Crash path: order and atomicity patterns ------------------------- *)

let order_shape_of remote anchor =
  match remote, anchor with
  | `Write, `Read -> Some WR
  | `Read, `Write -> Some RW
  | `Write, `Write -> Some WW
  | `Read, `Read -> None
  | _, _ -> None (* locks do not form order violations *)

let atomicity_shape_of local remote anchor =
  match local, remote, anchor with
  | `Read, `Write, `Read -> Some RWR
  | `Write, `Write, `Read -> Some WWR
  | `Read, `Write, `Write -> Some RWW
  | `Write, `Read, `Write -> Some WRW
  | _, _, _ -> None

let last_instance_in_tid tp ~iid ~tid =
  let rec last acc = function
    | [] -> acc
    | (e : Tp.event) :: rest ->
      last (if e.Tp.tid = tid then Some e else acc) rest
  in
  last None (Tp.instances tp ~iid)

let generate_crash m ~tp ~anchor_iid ~failing_tid ~candidates =
  ignore m;
  match last_instance_in_tid tp ~iid:anchor_iid ~tid:failing_tid with
  | None -> []
  | Some anchor_ev ->
    let anchor_access =
      match access_of_candidate candidates anchor_iid with
      | Some c -> c.Type_ranking.access
      | None -> `Read
    in
    let seen = Hashtbl.create 32 in
    let out = ref [] in
    let add p =
      let key = id p in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := p :: !out
      end
    in
    let remote_events c =
      List.filter
        (fun (e : Tp.event) ->
          e.Tp.tid <> failing_tid && Tp.executes_before e anchor_ev)
        (capped (Tp.instances tp ~iid:c.Type_ranking.iid))
    in
    (* The atomicity-violation local access must be the failing thread's
       access *adjacent* to the anchor: no other instance of either
       instruction in between (otherwise any ancient read would turn every
       order violation into a spurious atomicity one). *)
    let adjacent_local c =
      let priors =
        List.filter
          (fun (e : Tp.event) ->
            e.Tp.tid = failing_tid && e.Tp.seq < anchor_ev.Tp.seq)
          (capped (Tp.instances tp ~iid:c.Type_ranking.iid))
      in
      match List.rev priors with
      | [] -> None
      | l :: _ ->
        let anchor_between =
          List.exists
            (fun (e : Tp.event) ->
              e.Tp.tid = failing_tid && e.Tp.seq > l.Tp.seq
              && e.Tp.seq < anchor_ev.Tp.seq)
            (capped (Tp.instances tp ~iid:anchor_iid))
        in
        if anchor_between then None else Some l
    in
    (* Order violations: remote access before the failing access. *)
    List.iter
      (fun (c : Type_ranking.candidate) ->
        match order_shape_of c.Type_ranking.access anchor_access with
        | None -> ()
        | Some shape ->
          if remote_events c <> [] then
            add (Order { remote_iid = c.Type_ranking.iid; anchor_iid; shape }))
      candidates;
    (* Atomicity violations: a remote access between two adjacent local
       ones, with no other write overwriting the location before the
       anchor re-reads it. *)
    let writes =
      List.filter (fun (c : Type_ranking.candidate) -> c.Type_ranking.access = `Write) candidates
    in
    let unclobbered (r : Tp.event) (a : Tp.event) ~remote_iid =
      not
        (List.exists
           (fun (w : Type_ranking.candidate) ->
             w.Type_ranking.iid <> remote_iid
             && List.exists
                  (fun (we : Tp.event) ->
                    Tp.executes_before r we && Tp.executes_before we a)
                  (capped (Tp.instances tp ~iid:w.Type_ranking.iid)))
           writes)
    in
    List.iter
      (fun (cl : Type_ranking.candidate) ->
        match adjacent_local cl with
        | None -> ()
        | Some l ->
          List.iter
            (fun (cr : Type_ranking.candidate) ->
              match
                atomicity_shape_of cl.Type_ranking.access
                  cr.Type_ranking.access anchor_access
              with
              | None -> ()
              | Some shape ->
                let remotes = remote_events cr in
                let sandwiched =
                  List.exists
                    (fun (r : Tp.event) ->
                      Tp.executes_before l r
                      && unclobbered r anchor_ev
                           ~remote_iid:cr.Type_ranking.iid)
                    remotes
                in
                if sandwiched then
                  add
                    (Atomicity
                       {
                         local_iid = cl.Type_ranking.iid;
                         remote_iid = cr.Type_ranking.iid;
                         anchor_iid;
                         shape;
                         guard_writes =
                           List.filter_map
                             (fun (w : Type_ranking.candidate) ->
                               if w.Type_ranking.iid = cr.Type_ranking.iid then
                                 None
                               else Some w.Type_ranking.iid)
                             writes;
                       }))
            candidates)
      candidates;
    List.rev !out

(* --- Deadlock path ----------------------------------------------------- *)

let is_unlock m iid =
  match (Lir.Irmod.instr_by_iid m iid).Lir.Instr.kind with
  | Lir.Instr.Call { callee; _ } ->
    String.equal callee Lir.Intrinsics.mutex_unlock
  | _ -> false

let is_lock m iid =
  match (Lir.Irmod.instr_by_iid m iid).Lir.Instr.kind with
  | Lir.Instr.Call { callee; _ } -> String.equal callee Lir.Intrinsics.mutex_lock
  | _ -> false

let objs_of m ~points_to iid =
  Analysis.Pointsto.accessed_objects points_to (Lir.Irmod.instr_by_iid m iid)

(* Lock calls by [tid] before [before] whose object set intersects
   [target_objs] and that are not released again before [before], in
   program order.  One pass over the events: a thread's events are in
   program order, so an unlock releases the live holds it aliases. *)
let live_holds m ~points_to tp ~tid ~before ~target_objs =
  let live = ref [] in
  Array.iter
    (fun (e : Tp.event) ->
      if e.Tp.tid = tid && e.Tp.seq < (before : Tp.event).Tp.seq then
        if is_lock m e.Tp.iid then begin
          let objs = objs_of m ~points_to e.Tp.iid in
          if Analysis.Memobj.sets_overlap objs target_objs then
            live := (e, objs) :: !live
        end
        else if !live <> [] && is_unlock m e.Tp.iid then begin
          let released = objs_of m ~points_to e.Tp.iid in
          live :=
            List.filter
              (fun (_, objs) -> not (Analysis.Memobj.sets_overlap released objs))
              !live
        end)
    tp.Tp.events;
  List.rev_map fst !live

let generate_deadlock m ~points_to ~tp ~blocked =
  let n = List.length blocked in
  if n < 2 then []
  else
    (* blocked is in cycle order: thread i's attempted lock is held by
       thread i+1, hence thread i's relevant hold aliases the attempt of
       thread i-1. *)
    let arr = Array.of_list blocked in
    let attempts =
      Array.map
        (fun (tid, iid) ->
          match last_instance_in_tid tp ~iid ~tid with
          | Some e -> Some (tid, iid, e)
          | None -> None)
        arr
    in
    if Array.exists (fun a -> a = None) attempts then []
    else
      let attempts = Array.map Option.get attempts in
      let side_choices =
        Array.to_list
          (Array.mapi
             (fun i (tid, att_iid, att_ev) ->
               let prev = (i + n - 1) mod n in
               let _, prev_att_iid, _ = attempts.(prev) in
               let target_objs = objs_of m ~points_to prev_att_iid in
               let holds =
                 live_holds m ~points_to tp ~tid ~before:att_ev ~target_objs
               in
               List.map (fun (h : Tp.event) -> (h.Tp.iid, att_iid)) holds)
             attempts)
      in
      (* Cartesian product of per-side hold choices, capped. *)
      let rec product = function
        | [] -> [ [] ]
        | choices :: rest ->
          let tails = product rest in
          List.concat_map
            (fun c -> List.map (fun t -> c :: t) tails)
            choices
      in
      let combos = product side_choices in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      (* Canonical rotation (smallest hold iid first): the cycle has no
         distinguished start, so reports and ground truth compare stably
         regardless of which thread happened to close it. *)
      let canonicalize sides =
        let arr = Array.of_list sides in
        let n = Array.length arr in
        let best = ref 0 in
        for i = 1 to n - 1 do
          if fst arr.(i) < fst arr.(!best) then best := i
        done;
        List.init n (fun i -> arr.((!best + i) mod n))
      in
      List.map
        (fun sides -> Deadlock_cycle { sides = canonicalize sides })
        (take 16 combos)

(* Canonical output order: simpler explanations first (order violations,
   then deadlocks, then atomicity), then by target iids, then by the full
   identity.  Generation itself walks candidate lists whose order leaks
   the type-ranking traversal; sorting here pins the output — and the
   statistics tie-breaks downstream — to the patterns themselves, and
   drops duplicates the two generation paths may both produce. *)
let kind_rank = function
  | Order _ -> 0
  | Deadlock_cycle _ -> 1
  | Atomicity _ -> 2

let canonical ps =
  List.sort_uniq
    (fun a b ->
      compare
        (kind_rank a, ordered_iids a, id a)
        (kind_rank b, ordered_iids b, id b))
    ps

let generate m ~points_to ~tp ~info ~failing_tid ~candidates =
  canonical
    (match (info : Report.failure_info) with
    | Report.Crash_info { failing_iid; _ } ->
      generate_crash m ~tp ~anchor_iid:failing_iid ~failing_tid ~candidates
    | Report.Deadlock_info { blocked } ->
      generate_deadlock m ~points_to ~tp ~blocked)

(* --- Presence checks --------------------------------------------------- *)

let present_order tp ~remote_iid ~anchor_iid =
  let remotes = capped (Tp.instances tp ~iid:remote_iid) in
  let anchors = capped (Tp.instances tp ~iid:anchor_iid) in
  List.exists
    (fun (a : Tp.event) ->
      List.exists
        (fun (r : Tp.event) -> r.Tp.tid <> a.Tp.tid && Tp.executes_before r a)
        remotes)
    anchors

(* The (l, a) pair must be adjacent in the thread: no other instance of
   either instruction strictly between them. *)
let adjacent tp ~local_iid ~anchor_iid (l : Tp.event) (a : Tp.event) =
  let between (e : Tp.event) =
    e.Tp.tid = a.Tp.tid && e.Tp.seq > l.Tp.seq && e.Tp.seq < a.Tp.seq
  in
  (not (List.exists between (capped (Tp.instances tp ~iid:local_iid))))
  && not (List.exists between (capped (Tp.instances tp ~iid:anchor_iid)))

let present_atomicity tp ~local_iid ~remote_iid ~anchor_iid ~guard_writes =
  let locals = capped (Tp.instances tp ~iid:local_iid) in
  let remotes = capped (Tp.instances tp ~iid:remote_iid) in
  let anchors = capped (Tp.instances tp ~iid:anchor_iid) in
  let unclobbered (r : Tp.event) (a : Tp.event) =
    not
      (List.exists
         (fun w ->
           List.exists
             (fun (we : Tp.event) ->
               Tp.executes_before r we && Tp.executes_before we a)
             (capped (Tp.instances tp ~iid:w)))
         guard_writes)
  in
  List.exists
    (fun (a : Tp.event) ->
      List.exists
        (fun (r : Tp.event) ->
          r.Tp.tid <> a.Tp.tid
          && Tp.executes_before r a
          && unclobbered r a
          && List.exists
               (fun (l : Tp.event) ->
                 l.Tp.tid = a.Tp.tid && l.Tp.seq < a.Tp.seq
                 && Tp.executes_before l r
                 && adjacent tp ~local_iid ~anchor_iid l a)
               locals)
        remotes)
    anchors

let present_deadlock m ~points_to tp ~sides =
  (* Instantiate each side in some thread with a live hold before the
     attempt, threads pairwise distinct, then require the crossing: every
     hold precedes the next side's attempt. *)
  let side_insts (h_iid, a_iid) =
    let holds = capped (Tp.instances tp ~iid:h_iid) in
    let attempts = capped (Tp.instances tp ~iid:a_iid) in
    let target_objs = lazy (objs_of m ~points_to h_iid) in
    List.concat_map
      (fun (a : Tp.event) ->
        (* The holds share one iid, so the live set depends only on the
           attempt: computed once, on the first hold that needs it. *)
        let lives =
          lazy
            (live_holds m ~points_to tp ~tid:a.Tp.tid ~before:a
               ~target_objs:(Lazy.force target_objs))
        in
        List.filter_map
          (fun (h : Tp.event) ->
            if
              h.Tp.tid = a.Tp.tid && h.Tp.seq < a.Tp.seq
              && List.exists
                   (fun (l : Tp.event) -> l.Tp.seq = h.Tp.seq)
                   (Lazy.force lives)
            then Some (h, a)
            else None)
          holds)
      attempts
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  let insts = List.map (fun s -> take 8 (side_insts s)) sides in
  if List.exists (fun l -> l = []) insts then false
  else
    let rec product = function
      | [] -> [ [] ]
      | choices :: rest ->
        let tails = product rest in
        List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices
    in
    let combos = product insts in
    let crossing combo =
      let arr = Array.of_list combo in
      let n = Array.length arr in
      let tids = Array.map (fun ((h : Tp.event), _) -> h.Tp.tid) arr in
      let distinct =
        Array.length arr
        = List.length (List.sort_uniq compare (Array.to_list tids))
      in
      distinct
      && Array.for_all
           (fun b -> b)
           (Array.init n (fun i ->
                let h, _ = arr.(i) in
                let _, a_next = arr.((i + 1) mod n) in
                Tp.executes_before h a_next))
    in
    List.exists crossing combos

let present_in m ~points_to p tp =
  match p with
  | Order { remote_iid; anchor_iid; _ } -> present_order tp ~remote_iid ~anchor_iid
  | Atomicity { local_iid; remote_iid; anchor_iid; guard_writes; _ } ->
    present_atomicity tp ~local_iid ~remote_iid ~anchor_iid ~guard_writes
  | Deadlock_cycle { sides } -> present_deadlock m ~points_to tp ~sides
