(* Surgical in-place edits of built modules: the patch synthesizer splices
   lock/signal scaffolding around existing instructions without rebuilding
   the program, so every untouched instruction keeps its iid (diagnoses,
   ground truth and failure signatures all key on iids).  Every mutator
   {!Irmod.place}s each instruction it adds, moves or replaces, so the iid
   tables stay current and [locate] never lays the module out again
   mid-synthesis; only the pcs go stale, until the next layout. *)

(* Differential checks observe every edit; [None] on the hot path. *)
let observer : (Irmod.t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_edit_observer f k =
  let prev = Domain.DLS.get observer in
  Domain.DLS.set observer (Some f);
  Fun.protect ~finally:(fun () -> Domain.DLS.set observer prev) k

let edited m =
  match Domain.DLS.get observer with None -> () | Some f -> f m

let index_in (b : Block.t) iid =
  let rec idx n = function
    | [] -> invalid_arg "Rewrite.locate: iid not in its located block"
    | (i : Instr.t) :: rest -> if i.Instr.iid = iid then n else idx (n + 1) rest
  in
  idx 0 b.Block.instrs

let locate m ~iid =
  let f, b = Irmod.location_of_iid m iid in
  (f, b, index_in b iid)

let mint m kinds =
  List.map (fun k -> Instr.make ~iid:(Irmod.fresh_iid m) k) kinds

let place_all m loc instrs = List.iter (Irmod.place m loc) instrs

let splice_at (b : Block.t) at instrs =
  let rec go n = function
    | rest when n = 0 -> instrs @ rest
    | [] -> invalid_arg "Rewrite.splice_at: index out of range"
    | i :: rest -> i :: go (n - 1) rest
  in
  b.Block.instrs <- go at b.Block.instrs

(* Mint [kinds] and splice them into the block holding [iid], [offset]
   slots after it. *)
let splice_near m ~iid ~offset kinds =
  let ((_, b) as loc) = Irmod.location_of_iid m iid in
  let at = index_in b iid + offset in
  let instrs = mint m kinds in
  splice_at b at instrs;
  place_all m loc instrs;
  edited m;
  instrs

let insert_before m ~iid kinds = splice_near m ~iid ~offset:0 kinds

let insert_after m ~iid kinds =
  if Instr.is_terminator (Irmod.instr_by_iid m iid) then
    invalid_arg "Rewrite.insert_after: cannot insert after a terminator";
  splice_near m ~iid ~offset:1 kinds

let append_block m (f : Func.t) ~label kinds =
  if List.exists (fun b -> String.equal b.Block.label label) f.Func.blocks then
    invalid_arg ("Rewrite.append_block: duplicate label " ^ label);
  let b = Block.create ~label in
  b.Block.instrs <- mint m kinds;
  (match List.rev b.Block.instrs with
  | last :: _ when Instr.is_terminator last -> ()
  | _ -> invalid_arg "Rewrite.append_block: block must end in a terminator");
  f.Func.blocks <- f.Func.blocks @ [ b ];
  place_all m (f, b) b.Block.instrs;
  edited m;
  b

let split_before m ~iid ~label =
  let f, b, at = locate m ~iid in
  if List.exists (fun b -> String.equal b.Block.label label) f.Func.blocks then
    invalid_arg ("Rewrite.split_before: duplicate label " ^ label);
  let rec take n = function
    | rest when n = 0 -> ([], rest)
    | [] -> invalid_arg "Rewrite.split_before: index out of range"
    | i :: rest ->
      let pre, post = take (n - 1) rest in
      (i :: pre, post)
  in
  let prefix, suffix = take at b.Block.instrs in
  let cont = Block.create ~label in
  cont.Block.instrs <- suffix;
  (* The new block keeps its position in the def-before-use block order by
     going right after the block it came from: registers defined in the
     prefix stay "earlier" than their uses in the suffix. *)
  let rec place = function
    | [] -> invalid_arg "Rewrite.split_before: block not in function"
    | x :: rest ->
      if x == b then x :: cont :: rest else x :: place rest
  in
  f.Func.blocks <- place f.Func.blocks;
  let br = mint m [ Instr.Br label ] in
  b.Block.instrs <- prefix @ br;
  place_all m (f, cont) suffix;
  place_all m (f, b) br;
  edited m;
  (b, cont)

let retarget m (b : Block.t) ~from_ ~to_ =
  match List.rev b.Block.instrs with
  | [] -> invalid_arg "Rewrite.retarget: empty block"
  | last :: rev_prefix ->
    let sub l = if String.equal l from_ then to_ else l in
    let kind =
      match last.Instr.kind with
      | Instr.Br l -> Instr.Br (sub l)
      | Instr.Cond_br { cond; then_; else_ } ->
        Instr.Cond_br { cond; then_ = sub then_; else_ = sub else_ }
      | _ -> invalid_arg "Rewrite.retarget: terminator has no label targets"
    in
    let loc = Irmod.location_of_iid m last.Instr.iid in
    (* Same iid: the branch is the same program point, only its target
       moved; failure signatures and ground truth stay comparable. *)
    let br = Instr.make ~iid:last.Instr.iid kind in
    b.Block.instrs <- List.rev (br :: rev_prefix);
    Irmod.place m loc br;
    edited m

let fresh_label (f : Func.t) ~base =
  let taken l =
    List.exists (fun b -> String.equal b.Block.label l) f.Func.blocks
  in
  if not (taken base) then base
  else begin
    let k = ref 1 in
    while taken (Printf.sprintf "%s%d" base !k) do
      incr k
    done;
    Printf.sprintf "%s%d" base !k
  end

let fresh_global m ~base ty =
  let taken g =
    match Irmod.global_ty m g with _ -> true | exception Not_found -> false
  in
  let name =
    if not (taken base) then base
    else begin
      let k = ref 1 in
      while taken (Printf.sprintf "%s%d" base !k) do
        incr k
      done;
      Printf.sprintf "%s%d" base !k
    end
  in
  Irmod.declare_global m name ty;
  name
