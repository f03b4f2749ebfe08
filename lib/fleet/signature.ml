module Report = Snorlax_core.Report

type t = {
  bug_id : string;
  kind : string;
  failing_pc : int;
  block_stack : int list;
}

let stack_depth = 8

(* The last [stack_depth] block entries of one thread's decoded steps,
   oldest first.  A step enters a block when its pc is a block's start
   pc.  Walks back from the newest step and stops at the depth bound, so
   the cost follows the stack depth, not the ring's length. *)
let block_stack_of_steps m (steps : Pt.Decoder.step array) =
  let rec walk i depth acc =
    if i < 0 || depth = stack_depth then acc
    else
      let pc = steps.(i).Pt.Decoder.pc in
      if Lir.Irmod.is_block_start m pc then walk (i - 1) (depth + 1) (pc :: acc)
      else walk (i - 1) depth acc
  in
  walk (Array.length steps - 1) 0 []

(* Both the stream router (tracker-side sharding) and the shard's own
   collector compute the signature of the same packet.  Memoizing the
   ring decode through the shared cache turns the second computation into
   a key digest, a cache hit and the bounded {!block_stack_of_steps}
   walk. *)
let decode_memo m ~config ring =
  let cache = Pt.Decode_cache.shared in
  if not (Pt.Decode_cache.enabled cache) then Pt.Decoder.decode m ~config ring
  else
    let k = Pt.Decode_cache.key m ~config ring in
    match Pt.Decode_cache.find cache k with
    | Some decoded -> decoded
    | None ->
      let decoded = Pt.Decoder.decode m ~config ring in
      Pt.Decode_cache.add cache k decoded;
      decoded

let of_failing m ~config ~bug_id (r : Report.failing_report) =
  match Lir.Irmod.instr_by_iid m (Report.failing_anchor_iid r) with
  | exception _ ->
    Error
      (Printf.sprintf "report for %s references an unknown instruction"
         bug_id)
  | i ->
    let block_stack =
      match List.assoc_opt r.Report.failing_tid r.Report.traces with
      | None -> []
      | Some ring -> (
        match decode_memo m ~config ring with
        | decoded -> block_stack_of_steps m decoded.Pt.Decoder.steps
        | exception _ -> [])
    in
    Ok
      {
        bug_id;
        kind = Report.kind_label r;
        failing_pc = i.Lir.Instr.pc;
        block_stack;
      }

let key s =
  Printf.sprintf "%s|%s|%d|%s" s.bug_id s.kind s.failing_pc
    (String.concat ">" (List.map string_of_int s.block_stack))

(* Tables only show the newest three stack entries; [key] keeps them all. *)
let to_string s =
  let via =
    match s.block_stack with
    | [] -> ""
    | pcs ->
      let n = List.length pcs in
      let shown = List.filteri (fun i _ -> i >= n - 3) pcs in
      Printf.sprintf " via %s%s"
        (if n > 3 then "..>" else "")
        (String.concat ">" (List.map (Printf.sprintf "0x%x") shown))
  in
  Printf.sprintf "%s@0x%x%s" s.kind s.failing_pc via
