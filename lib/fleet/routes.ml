let server_build modules bug_id =
  match Hashtbl.find_opt modules bug_id with
  | Some b -> Ok b
  | None -> (
    match Corpus.Registry.find bug_id with
    | None -> Error (Printf.sprintf "unknown bug id %s" bug_id)
    | Some bug ->
      let b = bug.Corpus.Bug.build () in
      Lir.Irmod.layout b.Corpus.Bug.m;
      Hashtbl.add modules bug_id b;
      Ok b)

type failing = {
  signature : Signature.t;
  key : string;
  watch_pcs : int list Lazy.t;
}

let of_failing modules ~config ~bug_id r =
  Result.bind (server_build modules bug_id) @@ fun built ->
  let m = built.Corpus.Bug.m in
  Signature.of_failing m ~config ~bug_id r
  |> Result.map (fun signature ->
         {
           signature;
           key = Signature.key signature;
           watch_pcs = lazy (Corpus.Runner.watch_pcs_for m r);
         })

type ('target, 'item) bug = {
  mutable routes : (int list * 'target) list;  (* (watch pcs, target) *)
  held : (int * 'item) Queue.t;  (* (trigger pc, item) *)
}

type ('target, 'item) t = {
  max_pending : int;
  name : string;
  targets : (string, 'target) Hashtbl.t;  (* signature key -> target *)
  bugs : (string, ('target, 'item) bug) Hashtbl.t;
  mutable dropped : int;
}

let create ~max_pending ~name =
  if max_pending < 0 then invalid_arg "Routes.create: max_pending < 0";
  let targets = Hashtbl.create 16 and bugs = Hashtbl.create 8 in
  { max_pending; name; targets; bugs; dropped = 0 }

let bug t bug_id =
  match Hashtbl.find_opt t.bugs bug_id with
  | Some b -> b
  | None ->
    let b = { routes = []; held = Queue.create () } in
    Hashtbl.add t.bugs bug_id b;
    b

let find b pc =
  List.find_map
    (fun (pcs, target) -> if List.mem pc pcs then Some target else None)
    b.routes

let route t ~bug_id ~pc item =
  let b = bug t bug_id in
  match find b pc with
  | Some _ as target -> target
  | None ->
    Queue.push (pc, item) b.held;
    if Queue.length b.held > t.max_pending then begin
      ignore (Queue.pop b.held);
      t.dropped <- t.dropped + 1;
      Obs.Scope.count (t.name ^ "_dropped") 1;
      Obs.Log.info (t.name ^ "_evict")
        ~fields:[ ("bug", Obs.Log.Str bug_id); ("evicted", Obs.Log.Int 1) ]
    end;
    None

let claim t f ~fresh =
  match Hashtbl.find_opt t.targets f.key with
  | Some target -> (target, [])
  | None ->
    let target = fresh () in
    Hashtbl.add t.targets f.key target;
    let b = bug t f.signature.Signature.bug_id in
    b.routes <- b.routes @ [ (Lazy.force f.watch_pcs, target) ];
    (* Re-offer every held item oldest first; the unclaimed ones go back
       in their order. *)
    let held = Queue.copy b.held in
    Queue.clear b.held;
    let released =
      Queue.fold
        (fun acc ((pc, item) as h) ->
          match find b pc with
          | Some target -> (target, item) :: acc
          | None ->
            Queue.push h b.held;
            acc)
        [] held
    in
    (target, List.rev released)

let held t = Hashtbl.fold (fun _ b acc -> acc + Queue.length b.held) t.bugs 0
let dropped t = t.dropped

let pools t =
  Hashtbl.fold
    (fun bug_id b acc ->
      if Queue.is_empty b.held then acc else (bug_id, Queue.length b.held) :: acc)
    t.bugs []
