module Tablefmt = Snorlax_util.Tablefmt

type arg_value = Str of string | Int of int | Float of float

type span = {
  id : int;
  name : string;
  track : int;
  parent : int option;
  start_ns : float;
  mutable end_ns : float;  (* NaN while the span is open *)
  mutable args : (string * arg_value) list;
}

type t = {
  clock : unit -> float;
  mutable next_id : int;
  mutable spans_rev : span list;  (* every started span, newest first *)
  open_stacks : (int, span list ref) Hashtbl.t;  (* per display track *)
}

(* gettimeofday can step backwards under NTP; spans need monotonically
   non-decreasing stamps or Chrome-trace durations go negative, so ties
   and regressions are nudged forward by 1 ns.  Stamps are relative to
   process start: at epoch magnitude (~1.8e18 ns) a double's ULP is 256 ns
   and the nudge would round away, while relative stamps keep sub-ns
   resolution for months. *)
let epoch = Unix.gettimeofday ()

let wall_clock_ns =
  let last = ref 0.0 in
  fun () ->
    let t = (Unix.gettimeofday () -. epoch) *. 1e9 in
    let t = if t > !last then t else !last +. 1.0 in
    last := t;
    t

let create ?(clock = wall_clock_ns) () =
  { clock; next_id = 0; spans_rev = []; open_stacks = Hashtbl.create 4 }

let stack t track =
  match Hashtbl.find_opt t.open_stacks track with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.add t.open_stacks track s;
    s

let start t ?(track = 0) ?(args = []) name =
  let st = stack t track in
  let parent = match !st with [] -> None | p :: _ -> Some p.id in
  let sp =
    {
      id = t.next_id;
      name;
      track;
      parent;
      start_ns = t.clock ();
      end_ns = Float.nan;
      args;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans_rev <- sp :: t.spans_rev;
  st := sp :: !st;
  sp

let is_open sp = Float.is_nan sp.end_ns

let finish t sp =
  if not (is_open sp) then invalid_arg "Span.finish: span already finished";
  sp.end_ns <- t.clock ();
  let st = stack t sp.track in
  st := List.filter (fun s -> s.id <> sp.id) !st

let with_span t ?track ?args name f =
  let sp = start t ?track ?args name in
  Fun.protect ~finally:(fun () -> if is_open sp then finish t sp) (fun () -> f sp)

let set_arg sp key v = sp.args <- (key, v) :: List.remove_assoc key sp.args

let find_arg sp key = List.assoc_opt key sp.args

let duration_ns sp = sp.end_ns -. sp.start_ns

let elapsed_ns t sp =
  if is_open sp then t.clock () -. sp.start_ns else duration_ns sp

let open_span t ?(track = 0) () =
  match Hashtbl.find_opt t.open_stacks track with
  | Some { contents = sp :: _ } -> Some sp
  | Some { contents = [] } | None -> None

let spans t = List.rev t.spans_rev

let orphans t = List.filter is_open (spans t)

let arg_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f

let render_tree t =
  let all = spans t in
  let children = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      match sp.parent with
      | Some pid ->
        let l =
          match Hashtbl.find_opt children pid with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add children pid l;
            l
        in
        l := sp :: !l
      | None -> ())
    all;
  let tbl = Tablefmt.create ~headers:[ "span"; "us"; "args" ] in
  Tablefmt.set_align tbl Tablefmt.[ Left; Right; Left ];
  let rec emit depth sp =
    let dur =
      if is_open sp then "open"
      else Printf.sprintf "%.1f" (duration_ns sp /. 1e3)
    in
    let args =
      String.concat " "
        (List.rev_map (fun (k, v) -> k ^ "=" ^ arg_to_string v) sp.args)
    in
    Tablefmt.add_row tbl [ String.make (2 * depth) ' ' ^ sp.name; dur; args ];
    List.iter (emit (depth + 1))
      (match Hashtbl.find_opt children sp.id with
      | Some l -> List.rev !l
      | None -> [])
  in
  List.iter (fun sp -> if sp.parent = None then emit 0 sp) all;
  Tablefmt.render tbl
