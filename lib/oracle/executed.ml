module Dynbuf = Snorlax_util.Dynbuf

type t = (int, (int * int * float) Dynbuf.t) Hashtbl.t

let create () = Hashtbl.create 8

let hooks t =
  let on_instr ~tid ~time (i : Lir.Instr.t) =
    if not (Hashtbl.mem t tid) then Hashtbl.add t tid (Dynbuf.create ());
    Dynbuf.push (Hashtbl.find t tid) (i.Lir.Instr.pc, i.Lir.Instr.iid, time);
    0.0
  in
  { Sim.Hooks.none with Sim.Hooks.on_instr = Some on_instr }

(* Executed times are floats, decoded bounds whole nanoseconds. *)
let within (s : Pt.Decoder.step) time =
  float_of_int s.Pt.Decoder.t_lo <= time +. 1.0
  &&
  match s.Pt.Decoder.t_hi with
  | Some hi -> time <= float_of_int hi +. 1.0
  | None -> true

let check t ~tid ?tail_stop (d : Pt.Decoder.result) =
  let path =
    match Hashtbl.find_opt t tid with Some p -> Dynbuf.to_array p | None -> [||]
  in
  let steps = d.Pt.Decoder.steps in
  let n = Array.length steps and m = Array.length path in
  let fail fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "tid %d: %s" tid s)) fmt
  in
  (* The first step that disagrees with the path laid from index [j0]
     (-1: the steps do not fit there): another iid or, when [timed], an
     executed time outside the step's interval. *)
  let first_bad ~timed j0 =
    let rec go k =
      if k = n then None
      else
        let _, iid, time = path.(j0 + k) and s = steps.(k) in
        if iid <> s.Pt.Decoder.iid || (timed && not (within s time)) then
          Some k
        else go (k + 1)
    in
    if j0 < 0 || j0 + n > m then Some (-1) else go 0
  in
  let judge j0 =
    match first_bad ~timed:true j0 with
    | None -> Ok ()
    | Some (-1) -> fail "%d decoded steps do not fit at executed step %d" n j0
    | Some k ->
      let s = steps.(k) and _, iid, time = path.(j0 + k) in
      fail "step %d decoded iid %d in [%d, %s]; executed iid %d at %.2f ns" k
        s.Pt.Decoder.iid s.Pt.Decoder.t_lo
        (Option.fold ~none:"open" ~some:string_of_int s.Pt.Decoder.t_hi)
        iid time
  in
  (* Where the run may start: so that it ends at the last instance of
     the stop pc by the stop time when tail-stopped; anywhere otherwise,
     since a wrapped ring's run can sit anywhere and loops repeat iids. *)
  let starts =
    match tail_stop with
    | None -> List.init (max 0 (m - n + 1)) Fun.id
    | Some (stop_pc, stop_ns) ->
      let rec last j =
        if j < 0 then []
        else
          let pc, _, time = path.(j) in
          if pc = stop_pc && time <= float_of_int stop_ns +. 1.0 then
            [ j - n + 1 ]
          else last (j - 1)
      in
      last (m - 1)
  in
  let fits ~timed j = first_bad ~timed j = None in
  if d.Pt.Decoder.desynced then fail "desynced on an undamaged ring"
  else if List.exists (fits ~timed:true) starts then Ok ()
  else
    (* Explain the first start whose iids fit, else the first start. *)
    match List.find_opt (fits ~timed:false) starts, starts with
    | Some j, _ | None, j :: _ -> judge j
    | None, [] -> fail "no executed run can hold the %d decoded steps" n
