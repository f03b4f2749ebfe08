module Dynbuf = Snorlax_util.Dynbuf

module Vc = struct
  (* Dense: thread [k]'s component at index [k], 0 past the end.  The
     public operations are persistent; the engine's [*_in] variants
     update a clock it owns in place and return it, regrown when a
     larger tid shows up. *)
  type t = int array

  let empty = [||]
  let get t k = if k >= 0 && k < Array.length t then Array.unsafe_get t k else 0

  (* Grown to exactly [n]: a clock is never longer than the largest tid
     it has heard of plus one, so joins and copies stay O(threads).
     (Doubling would let two clocks that join each other ratchet their
     lengths up without bound.) *)
  let ensure t n =
    let len = Array.length t in
    if len >= n then t
    else begin
      let c = Array.make n 0 in
      Array.blit t 0 c 0 len;
      c
    end

  let tick_in k t =
    let t = ensure t (k + 1) in
    t.(k) <- t.(k) + 1;
    t

  let join_in dst src =
    let dst = ensure dst (Array.length src) in
    for k = 0 to Array.length src - 1 do
      let v : int = Array.unsafe_get src k in
      if v > Array.unsafe_get dst k then Array.unsafe_set dst k v
    done;
    dst

  (* [dst] := [src], reusing [dst]'s storage. *)
  let copy_in dst src =
    let dst = ensure dst (Array.length src) in
    Array.blit src 0 dst 0 (Array.length src);
    Array.fill dst (Array.length src) (Array.length dst - Array.length src) 0;
    dst

  let tick k t = tick_in k (Array.copy t)
  let join a b = join_in (Array.copy a) b

  let leq a b =
    let rec go k = k >= Array.length a || (a.(k) <= get b k && go (k + 1)) in
    go 0
end

type access_kind = Read | Write

type event =
  | Access of
      { tid : int; iid : int; addr : int; size : int; kind : access_kind }
  | Free of { tid : int; iid : int; addr : int; size : int }
  | Lock_attempt of { tid : int; iid : int; lock : int }
  | Acquire of { tid : int; iid : int; lock : int }
  | Release of { tid : int; iid : int; lock : int }
  | Fork of { parent : int; child : int; iid : int }
  | Join of { tid : int; target : int; iid : int }
  | Cond_wake of { waker : int; woken : int; cond : int }

type ordering = Racy | Lock_ordered | Enforced

type race = {
  a_iid : int;
  b_iid : int;
  a_kind : access_kind;
  b_kind : access_kind;
}

type verdict =
  | No_conflict
  | Conflict of { ordering : ordering; path : string list }

(* Sync nodes: one per synchronization action, threaded in program order
   within each thread ([n_pos] is the index in the thread's own node
   list) plus labelled cross-thread edges.  Accesses are not nodes — each
   access record remembers how many sync nodes its thread had emitted, so
   a path query starts at the thread's next sync node after the access
   and ends at any sync node preceding the other access. *)
type edge_kind = E_fork | E_join | E_cond | E_lock

(* What a node stands for; rendered to text only when a path is
   explained, so feeding events formats nothing. *)
type action =
  | Acquires of { lock : int; iid : int }
  | Releases of { lock : int; iid : int }
  | Forks of { child : int; iid : int }
  | Begins
  | Ends
  | Joins of { target : int; iid : int }
  | Signals of { cond : int }
  | Wakes of { cond : int }

type node = {
  n_tid : int;
  n_pos : int;
  n_action : action;
  mutable n_out : (edge_kind * int) list;
}

let node_label n =
  let tid = n.n_tid in
  match n.n_action with
  | Acquires { lock; iid } ->
    Printf.sprintf "t%d acquires lock 0x%x (iid %d)" tid lock iid
  | Releases { lock; iid } ->
    Printf.sprintf "t%d releases lock 0x%x (iid %d)" tid lock iid
  | Forks { child; iid } -> Printf.sprintf "t%d forks t%d (iid %d)" tid child iid
  | Begins -> Printf.sprintf "t%d begins" tid
  | Ends -> Printf.sprintf "t%d ends" tid
  | Joins { target; iid } ->
    Printf.sprintf "t%d joins t%d (iid %d)" tid target iid
  | Signals { cond } -> Printf.sprintf "t%d signals cond 0x%x" tid cond
  | Wakes { cond } -> Printf.sprintf "t%d wakes on cond 0x%x" tid cond

type tstate = {
  (* Own component starts at 1 so an access epoch is never ≤ the 0 a
     foreign clock reports for threads it has no edge from. *)
  mutable full : Vc.t; (* owned: updated in place *)
  mutable enf : Vc.t;
  tnodes : int Dynbuf.t; (* node ids, program order *)
  mutable held : (int * int) list; (* lock addr -> acquiring iid *)
}

type arec = {
  r_tid : int;
  r_iid : int;
  r_kind : access_kind;
  r_ep_full : int;
  r_ep_enf : int;
  r_pos : int;
}

(* Weakest ordering observed for a static pair: 0 racy, 1 lock-mediated,
   2 enforced; [pa]/[pb] witness that weakest dynamic instance pair in
   stream order. *)
type pinfo = { mutable cls : int; mutable pa : arec; mutable pb : arec }

(* Static pairs are keyed by one int, [lo lsl 31 lor hi] of the ordered
   iids, so a lookup allocates no tuple. *)
let pair_key a b = if a <= b then (a lsl 31) lor b else (b lsl 31) lor a

type t = {
  mutable threads : tstate option array; (* indexed by tid *)
  lock_clocks : (int, Vc.t) Hashtbl.t; (* owned copies *)
  last_release : (int, int) Hashtbl.t; (* lock -> release node id *)
  cells : (int, arec list ref) Hashtbl.t; (* addr -> last record per key *)
  mutable franges : (arec * int * int) list; (* free records, [lo, hi) *)
  pairs : (int, pinfo) Hashtbl.t; (* [pair_key] -> weakest instance pair *)
  mutable kinds : Bytes.t; (* iid -> '\000' unseen, 'R' or 'W' *)
  nodes : node Dynbuf.t;
  ledges : (int * int * int * int * int, unit) Hashtbl.t;
  ledges_order : (int * int * int * int * int) Dynbuf.t;
  mutable events : int;
}

let create () =
  {
    threads = Array.make 8 None;
    lock_clocks = Hashtbl.create 16;
    last_release = Hashtbl.create 16;
    cells = Hashtbl.create 64;
    franges = [];
    pairs = Hashtbl.create 16;
    kinds = Bytes.make 64 '\000';
    nodes = Dynbuf.create ();
    ledges = Hashtbl.create 64;
    ledges_order = Dynbuf.create ();
    events = 0;
  }

let find_tstate t tid =
  if tid < Array.length t.threads then Array.unsafe_get t.threads tid else None

let tstate t tid =
  match find_tstate t tid with
  | Some ts -> ts
  | None ->
    let ts =
      {
        full = Vc.tick tid Vc.empty;
        enf = Vc.tick tid Vc.empty;
        tnodes = Dynbuf.create ();
        held = [];
      }
    in
    if tid >= Array.length t.threads then begin
      let n = max (tid + 1) (2 * Array.length t.threads) in
      let grown = Array.make n None in
      Array.blit t.threads 0 grown 0 (Array.length t.threads);
      t.threads <- grown
    end;
    t.threads.(tid) <- Some ts;
    ts

let set_kind t iid kind =
  if iid < 0 || iid >= 1 lsl 31 then invalid_arg "Hb.feed: iid out of range";
  if iid >= Bytes.length t.kinds then begin
    let grown = Bytes.make (max (iid + 1) (2 * Bytes.length t.kinds)) '\000' in
    Bytes.blit t.kinds 0 grown 0 (Bytes.length t.kinds);
    t.kinds <- grown
  end;
  Bytes.unsafe_set t.kinds iid (match kind with Read -> 'R' | Write -> 'W')

let kind_of t iid = if Bytes.get t.kinds iid = 'R' then Read else Write

let new_node t ts ~tid action =
  let id = Dynbuf.length t.nodes in
  let n =
    {
      n_tid = tid;
      n_pos = Dynbuf.length ts.tnodes;
      n_action = action;
      n_out = [];
    }
  in
  Dynbuf.push t.nodes n;
  Dynbuf.push ts.tnodes id;
  id

let add_edge t kind ~src ~dst =
  let n = Dynbuf.get t.nodes src in
  n.n_out <- (kind, dst) :: n.n_out

(* 0 racy / 1 lock / 2 enforced for prior record [r] vs the current state
   of the accessing thread. *)
let classify ts (r : arec) =
  if r.r_ep_full <= Vc.get ts.full r.r_tid then
    if r.r_ep_enf <= Vc.get ts.enf r.r_tid then 2 else 1
  else 0

let note_pair t ~(first : arec) ~(second : arec) cls =
  let key = pair_key first.r_iid second.r_iid in
  match Hashtbl.find t.pairs key with
  | exception Not_found ->
    Hashtbl.add t.pairs key { cls; pa = first; pb = second }
  | p ->
    if cls < p.cls then begin
      p.cls <- cls;
      p.pa <- first;
      p.pb <- second
    end

(* Prior record [r] against the current access [cur] of thread [ts]. *)
let consider t ts (cur : arec) (r : arec) =
  let conflicting =
    (r.r_kind = Write || cur.r_kind = Write)
    && not (r.r_tid = cur.r_tid && r.r_iid = cur.r_iid)
  in
  if conflicting then
    let cls = if r.r_tid = cur.r_tid then 2 else classify ts r in
    note_pair t ~first:r ~second:cur cls

let rec consider_all t ts cur = function
  | [] -> ()
  | r :: rest ->
    consider t ts cur r;
    consider_all t ts cur rest

(* Prior frees overlapping [addr, hi) always apply. *)
let rec consider_frees t ts cur ~addr ~hi = function
  | [] -> ()
  | (r, lo, fhi) :: rest ->
    if lo < hi && addr < fhi then consider t ts cur r;
    consider_frees t ts cur ~addr ~hi rest

(* [recs] without its record of [cur]'s (tid, iid, kind), if any; there
   is at most one, and the tail after it is shared, not copied. *)
let rec supersede (cur : arec) = function
  | [] -> []
  | r :: rest ->
    if r.r_tid = cur.r_tid && r.r_iid = cur.r_iid && r.r_kind = cur.r_kind
    then rest
    else r :: supersede cur rest

let process_access t ~tid ~iid ~addr ~size ~kind ~is_free =
  let ts = tstate t tid in
  set_kind t iid kind;
  let cur =
    {
      r_tid = tid;
      r_iid = iid;
      r_kind = kind;
      r_ep_full = Vc.get ts.full tid;
      r_ep_enf = Vc.get ts.enf tid;
      r_pos = Dynbuf.length ts.tnodes;
    }
  in
  let hi = addr + max 1 size in
  consider_frees t ts cur ~addr ~hi t.franges;
  if is_free then begin
    (* A free conflicts with every recorded cell inside the block, taken
       in address order: among equally weak instance pairs the first one
       considered is the witness, so the order must not depend on the
       table's size.  Frees are rare, so the full-table scan is cheap in
       practice. *)
    Hashtbl.fold
      (fun a recs acc -> if a >= addr && a < hi then (a, recs) :: acc else acc)
      t.cells []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (_, recs) -> consider_all t ts cur !recs);
    t.franges <- (cur, addr, hi) :: t.franges
  end
  else
    match Hashtbl.find t.cells addr with
    | recs ->
      consider_all t ts cur !recs;
      (* Keep only the newest record per (tid, iid, kind): ordering
         against future accesses through a superseded instance is
         implied by program order to the newer one, so nothing is
         lost. *)
      recs := cur :: supersede cur !recs
    | exception Not_found -> Hashtbl.add t.cells addr (ref [ cur ])

let access t ~tid ~iid ~addr ~size ~kind =
  t.events <- t.events + 1;
  process_access t ~tid ~iid ~addr ~size ~kind ~is_free:false

let free t ~tid ~iid ~addr ~size =
  t.events <- t.events + 1;
  process_access t ~tid ~iid ~addr ~size ~kind:Write ~is_free:true

let feed t event =
  t.events <- t.events + 1;
  match event with
  | Access { tid; iid; addr; size; kind } ->
    process_access t ~tid ~iid ~addr ~size ~kind ~is_free:false
  | Free { tid; iid; addr; size } ->
    process_access t ~tid ~iid ~addr ~size ~kind:Write ~is_free:true
  | Lock_attempt { tid; iid; lock } ->
    let ts = tstate t tid in
    List.iter
      (fun (held, hiid) ->
        if held <> lock then begin
          let e = (tid, held, hiid, lock, iid) in
          if not (Hashtbl.mem t.ledges e) then begin
            Hashtbl.add t.ledges e ();
            Dynbuf.push t.ledges_order e
          end
        end)
      ts.held
  | Acquire { tid; iid; lock } ->
    let ts = tstate t tid in
    (match Hashtbl.find t.lock_clocks lock with
    | lc -> ts.full <- Vc.join_in ts.full lc
    | exception Not_found -> ());
    let n = new_node t ts ~tid (Acquires { lock; iid }) in
    (match Hashtbl.find_opt t.last_release lock with
    | Some rel -> add_edge t E_lock ~src:rel ~dst:n
    | None -> ());
    ts.held <- (lock, iid) :: List.remove_assoc lock ts.held
  | Release { tid; iid; lock } ->
    let ts = tstate t tid in
    let lc =
      match Hashtbl.find t.lock_clocks lock with
      | lc -> lc
      | exception Not_found -> Vc.empty
    in
    Hashtbl.replace t.lock_clocks lock (Vc.copy_in lc ts.full);
    ts.full <- Vc.tick_in tid ts.full;
    let n = new_node t ts ~tid (Releases { lock; iid }) in
    Hashtbl.replace t.last_release lock n;
    ts.held <- List.remove_assoc lock ts.held
  | Fork { parent; child; iid } ->
    let ps = tstate t parent in
    let pn = new_node t ps ~tid:parent (Forks { child; iid }) in
    let cs = tstate t child in
    cs.full <- Vc.join_in cs.full ps.full;
    cs.enf <- Vc.join_in cs.enf ps.enf;
    ps.full <- Vc.tick_in parent ps.full;
    ps.enf <- Vc.tick_in parent ps.enf;
    let cn = new_node t cs ~tid:child Begins in
    add_edge t E_fork ~src:pn ~dst:cn
  | Join { tid; target; iid } ->
    let ts = tstate t tid in
    let gs = tstate t target in
    ts.full <- Vc.join_in ts.full gs.full;
    ts.enf <- Vc.join_in ts.enf gs.enf;
    let en = new_node t gs ~tid:target Ends in
    let jn = new_node t ts ~tid (Joins { target; iid }) in
    add_edge t E_join ~src:en ~dst:jn
  | Cond_wake { waker; woken; cond } ->
    let ws = tstate t waker in
    let vs = tstate t woken in
    vs.full <- Vc.join_in vs.full ws.full;
    vs.enf <- Vc.join_in vs.enf ws.enf;
    ws.full <- Vc.tick_in waker ws.full;
    ws.enf <- Vc.tick_in waker ws.enf;
    let sn = new_node t ws ~tid:waker (Signals { cond }) in
    let wn = new_node t vs ~tid:woken (Wakes { cond }) in
    add_edge t E_cond ~src:sn ~dst:wn

(* Breadth-first search over the sync-node graph from just after access
   [a] to just before access [b]; [allow_lock] selects the full relation
   or the enforced subgraph. *)
let find_path t ~allow_lock (a : arec) (b : arec) =
  let endpoints mid =
    (Printf.sprintf "t%d iid %d" a.r_tid a.r_iid :: mid)
    @ [ Printf.sprintf "t%d iid %d" b.r_tid b.r_iid ]
  in
  if a.r_tid = b.r_tid then
    [
      Printf.sprintf "t%d program order: iid %d precedes iid %d" a.r_tid
        a.r_iid b.r_iid;
    ]
  else
    match find_tstate t a.r_tid with
    | None -> []
    | Some ats ->
      if Dynbuf.length ats.tnodes <= a.r_pos then []
      else begin
        let start = Dynbuf.get ats.tnodes a.r_pos in
        let prev = Hashtbl.create 64 in
        let q = Queue.create () in
        Hashtbl.add prev start (-1);
        Queue.add start q;
        let goal = ref None in
        while !goal = None && not (Queue.is_empty q) do
          let id = Queue.pop q in
          let n = Dynbuf.get t.nodes id in
          if n.n_tid = b.r_tid && n.n_pos < b.r_pos then goal := Some id
          else begin
            let push dst =
              if not (Hashtbl.mem prev dst) then begin
                Hashtbl.add prev dst id;
                Queue.add dst q
              end
            in
            (match find_tstate t n.n_tid with
            | Some nts when n.n_pos + 1 < Dynbuf.length nts.tnodes ->
              push (Dynbuf.get nts.tnodes (n.n_pos + 1))
            | Some _ | None -> ());
            List.iter
              (fun (k, dst) -> if allow_lock || k <> E_lock then push dst)
              n.n_out
          end
        done;
        match !goal with
        | None -> []
        | Some g ->
          let rec walk id acc =
            if id = -1 then acc
            else
              walk (Hashtbl.find prev id)
                (node_label (Dynbuf.get t.nodes id) :: acc)
          in
          endpoints (walk g [])
      end

let pair_verdict t a b =
  match Hashtbl.find_opt t.pairs (pair_key a b) with
  | None -> No_conflict
  | Some p ->
    let ordering =
      match p.cls with 0 -> Racy | 1 -> Lock_ordered | _ -> Enforced
    in
    let path =
      match ordering with
      | Racy -> []
      | Lock_ordered -> find_path t ~allow_lock:true p.pa p.pb
      | Enforced -> find_path t ~allow_lock:false p.pa p.pb
    in
    Conflict { ordering; path }

let races t =
  Hashtbl.fold
    (fun key (p : pinfo) acc ->
      if p.cls = 0 then
        let a_iid = key lsr 31 and b_iid = key land ((1 lsl 31) - 1) in
        { a_iid; b_iid; a_kind = kind_of t a_iid; b_kind = kind_of t b_iid }
        :: acc
      else acc)
    t.pairs []
  |> List.sort (fun x y -> compare (x.a_iid, x.b_iid) (y.a_iid, y.b_iid))

let lock_edges t = List.of_seq (Dynbuf.to_array t.ledges_order |> Array.to_seq)
let event_count t = t.events
let race_count t = List.length (races t)
