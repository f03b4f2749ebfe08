(* Tests for the LIR substrate: types, values, instructions, the builder
   DSL, module layout/lookup, the verifier and the CFG utilities. *)

module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty

let mk_module () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Pair" [ T.I64; T.Ptr T.I64 ]);
  m

(* --- types -------------------------------------------------------------- *)

let test_ty_equal () =
  Alcotest.(check bool) "ptr equal" true (T.equal (T.Ptr T.I64) (T.Ptr T.I64));
  Alcotest.(check bool) "ptr differs" false (T.equal (T.Ptr T.I64) (T.Ptr T.I8));
  Alcotest.(check bool) "struct by name" true
    (T.equal (T.Struct "Q") (T.Struct "Q"));
  Alcotest.(check bool) "array arity" false
    (T.equal (T.Array (T.I8, 3)) (T.Array (T.I8, 4)))

let test_ty_pointee () =
  Alcotest.(check bool) "pointee" true (T.equal T.I32 (T.pointee (T.Ptr T.I32)));
  Alcotest.check_raises "pointee of int"
    (Invalid_argument "Ty.pointee: not a pointer: i64") (fun () ->
      ignore (T.pointee T.I64))

let test_ty_sizes () =
  let m = mk_module () in
  let size ty = Lir.Irmod.size_of m ty in
  Alcotest.(check int) "i1" 1 (size T.I1);
  Alcotest.(check int) "i8" 1 (size T.I8);
  Alcotest.(check int) "i32" 4 (size T.I32);
  Alcotest.(check int) "i64" 8 (size T.I64);
  Alcotest.(check int) "ptr" 8 (size (T.Ptr (T.Struct "Pair")));
  Alcotest.(check int) "struct = sum" 16 (size (T.Struct "Pair"));
  Alcotest.(check int) "array" 24 (size (T.Array (T.I64, 3)))

let test_ty_to_string () =
  Alcotest.(check string) "nested ptr" "i32**" (T.to_string (T.Ptr (T.Ptr T.I32)));
  Alcotest.(check string) "struct" "%struct.Queue*"
    (T.to_string (T.Ptr (T.Struct "Queue")))

(* --- values ------------------------------------------------------------- *)

let test_value_types () =
  let m = mk_module () in
  Lir.Irmod.declare_global m "g" T.I64;
  let globals = Lir.Irmod.global_ty m in
  Alcotest.(check bool) "imm" true (T.equal T.I64 (V.ty_of ~globals (V.i64 3)));
  Alcotest.(check bool) "global is address" true
    (T.equal (T.Ptr T.I64) (V.ty_of ~globals (V.Global "g")));
  Alcotest.(check bool) "null keeps type" true
    (T.equal (T.Ptr T.I8) (V.ty_of ~globals (V.Null (T.Ptr T.I8))))

(* --- builder + layout --------------------------------------------------- *)

let build_simple () =
  let m = mk_module () in
  Lir.Irmod.declare_global m "counter" T.I64;
  B.define m "main" ~params:[] ~ret:T.I64 (fun b ->
      let p = B.alloca b T.I64 in
      B.store b ~value:(V.i64 5) ~ptr:p;
      let v = B.load b p in
      let w = B.add b v (V.i64 2) in
      B.store b ~value:w ~ptr:(V.Global "counter");
      B.ret b w);
  m

let test_builder_simple () =
  let m = build_simple () in
  Lir.Verify.check_exn m;
  Alcotest.(check int) "instruction count" 6 (Lir.Irmod.instr_count m)

let test_layout_lookup () =
  let m = build_simple () in
  Lir.Irmod.layout m;
  Lir.Irmod.iter_instrs m (fun _ _ i ->
      Alcotest.(check bool) "pc assigned" true (i.Lir.Instr.pc >= 0x1000);
      let by_iid = Lir.Irmod.instr_by_iid m i.Lir.Instr.iid in
      Alcotest.(check int) "iid lookup" i.Lir.Instr.pc by_iid.Lir.Instr.pc)

let test_layout_pcs_distinct () =
  let m = build_simple () in
  Lir.Irmod.layout m;
  let pcs = ref [] in
  Lir.Irmod.iter_instrs m (fun _ _ i -> pcs := i.Lir.Instr.pc :: !pcs);
  Alcotest.(check int) "all distinct"
    (List.length !pcs)
    (List.length (List.sort_uniq compare !pcs))

let test_layout_block_starts () =
  let m = mk_module () in
  B.define m "f" ~params:[] ~ret:T.Void (fun b ->
      let l = B.fresh_label b "next" in
      B.br b l;
      B.start_block b l;
      B.ret_void b);
  Lir.Irmod.layout m;
  let pc = Lir.Irmod.block_start_pc m ~fname:"f" ~label:"entry" in
  let f, blk = Lir.Irmod.block_at_pc m pc in
  Alcotest.(check string) "function" "f" f.Lir.Func.fname;
  Alcotest.(check string) "block" "entry" blk.Lir.Block.label

let test_builder_if_else () =
  let m = mk_module () in
  Lir.Irmod.declare_global m "out" T.I64;
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let c = B.icmp b Lir.Instr.Slt (V.i64 1) (V.i64 2) in
      B.if_ b c
        ~then_:(fun () -> B.store b ~value:(V.i64 10) ~ptr:(V.Global "out"))
        ~else_:(fun () -> B.store b ~value:(V.i64 20) ~ptr:(V.Global "out"));
      B.ret_void b);
  Lir.Verify.check_exn m;
  let f = Lir.Irmod.find_func m "main" in
  Alcotest.(check int) "four blocks" 4 (List.length f.Lir.Func.blocks)

let test_builder_for_loop () =
  let m = mk_module () in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.for_ b ~from:0 ~below:(V.i64 3) (fun _ -> ());
      B.ret_void b);
  Lir.Verify.check_exn m

let test_builder_gep_checks () =
  let m = mk_module () in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let p = B.malloc b (T.Struct "Pair") in
      Alcotest.check_raises "field out of range"
        (Invalid_argument "Builder.gep: %struct.Pair has no field 7") (fun () ->
          ignore (B.gep b p 7));
      B.ret_void b)

let test_builder_last_iid () =
  let m = mk_module () in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let p = B.alloca b T.I64 in
      let after_alloca = B.last_iid b in
      B.store b ~value:(V.i64 1) ~ptr:p;
      let after_store = B.last_iid b in
      Alcotest.(check bool) "monotone" true (after_store > after_alloca);
      B.ret_void b)

let test_builder_unsealed_rejected () =
  let m = mk_module () in
  Alcotest.(check bool) "unsealed body fails" true
    (try
       B.define m "broken" ~params:[] ~ret:T.Void (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* --- verifier ----------------------------------------------------------- *)

let errors_of m = List.length (Lir.Verify.check m)

let test_verify_clean () =
  Alcotest.(check int) "no errors" 0 (errors_of (build_simple ()))

let test_verify_unknown_callee () =
  let m = mk_module () in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b "no_such_function" [];
      B.ret_void b);
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_arity_mismatch () =
  let m = mk_module () in
  B.define m "callee" ~params:[ ("x", T.I64) ] ~ret:T.Void (fun b ->
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b "callee" [];
      B.ret_void b);
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_intrinsic_arity () =
  let m = mk_module () in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.work [];
      B.ret_void b);
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_bad_branch_target () =
  let m = mk_module () in
  let f = Lir.Func.create ~fname:"f" ~params:[] ~ret:T.Void in
  let blk = Lir.Block.create ~label:"entry" in
  blk.Lir.Block.instrs <- [ Lir.Instr.make ~iid:0 (Lir.Instr.Br "nowhere") ];
  f.Lir.Func.blocks <- [ blk ];
  Lir.Irmod.add_func m f;
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_unsealed_block () =
  let m = mk_module () in
  let f = Lir.Func.create ~fname:"f" ~params:[] ~ret:T.Void in
  let blk = Lir.Block.create ~label:"entry" in
  blk.Lir.Block.instrs <-
    [
      Lir.Instr.make ~iid:0
        (Lir.Instr.Alloca
           { dst = Lir.Irmod.fresh_reg m ~name:"x" ~ty:(T.Ptr T.I64); ty = T.I64 });
    ];
  f.Lir.Func.blocks <- [ blk ];
  Lir.Irmod.add_func m f;
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_use_before_def () =
  let m = mk_module () in
  let reg = Lir.Irmod.fresh_reg m ~name:"ghost" ~ty:(T.Ptr T.I64) in
  let f = Lir.Func.create ~fname:"f" ~params:[] ~ret:T.Void in
  let blk = Lir.Block.create ~label:"entry" in
  let dst = Lir.Irmod.fresh_reg m ~name:"v" ~ty:T.I64 in
  blk.Lir.Block.instrs <-
    [
      Lir.Instr.make ~iid:(Lir.Irmod.fresh_iid m)
        (Lir.Instr.Load { dst; ptr = V.Reg reg });
      Lir.Instr.make ~iid:(Lir.Irmod.fresh_iid m) (Lir.Instr.Ret None);
    ];
  f.Lir.Func.blocks <- [ blk ];
  Lir.Irmod.add_func m f;
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_store_type_mismatch () =
  let m = mk_module () in
  Lir.Irmod.declare_global m "g" T.I64;
  let f = Lir.Func.create ~fname:"f" ~params:[] ~ret:T.Void in
  let blk = Lir.Block.create ~label:"entry" in
  blk.Lir.Block.instrs <-
    [
      Lir.Instr.make ~iid:(Lir.Irmod.fresh_iid m)
        (Lir.Instr.Store { value = V.i8 1; ptr = V.Global "g" });
      Lir.Instr.make ~iid:(Lir.Irmod.fresh_iid m) (Lir.Instr.Ret None);
    ];
  f.Lir.Func.blocks <- [ blk ];
  Lir.Irmod.add_func m f;
  Alcotest.(check bool) "caught" true (errors_of m > 0)

let test_verify_duplicate_labels () =
  let m = mk_module () in
  let f = Lir.Func.create ~fname:"f" ~params:[] ~ret:T.Void in
  let mk_blk () =
    let blk = Lir.Block.create ~label:"dup" in
    blk.Lir.Block.instrs <-
      [ Lir.Instr.make ~iid:(Lir.Irmod.fresh_iid m) (Lir.Instr.Ret None) ];
    blk
  in
  f.Lir.Func.blocks <- [ mk_blk (); mk_blk () ];
  Lir.Irmod.add_func m f;
  Alcotest.(check bool) "caught" true (errors_of m > 0)

(* Every check fires once, in one module: the exact messages and their
   order (per function: labels, sealing, targets, then instructions in
   block order) are part of what a caller sees. *)
let test_verify_error_list () =
  let m = mk_module () in
  let blk label kinds =
    let b = Lir.Block.create ~label in
    b.Lir.Block.instrs <-
      List.map (fun k -> Lir.Instr.make ~iid:(Lir.Irmod.fresh_iid m) k) kinds;
    b
  in
  (* Two definitions of "callee": calls are checked against the later
     one, which takes two parameters. *)
  let c1 = Lir.Func.create ~fname:"callee" ~params:[] ~ret:T.Void in
  c1.Lir.Func.blocks <- [ blk "entry" [ Lir.Instr.Ret None ] ];
  Lir.Irmod.add_func m c1;
  let p1 = Lir.Irmod.fresh_reg m ~name:"a" ~ty:T.I64 in
  let p2 = Lir.Irmod.fresh_reg m ~name:"b" ~ty:T.I64 in
  let c2 = Lir.Func.create ~fname:"callee" ~params:[ p1; p2 ] ~ret:T.Void in
  c2.Lir.Func.blocks <- [ blk "entry" [ Lir.Instr.Ret None ] ];
  Lir.Irmod.add_func m c2;
  let ghost = Lir.Irmod.fresh_reg m ~name:"ghost" ~ty:(T.Ptr T.I64) in
  let v = Lir.Irmod.fresh_reg m ~name:"v" ~ty:T.I64 in
  let f = Lir.Func.create ~fname:"f" ~params:[] ~ret:T.Void in
  f.Lir.Func.blocks <-
    [
      blk "zeta" [ Lir.Instr.Br "alpha" ];
      blk "alpha"
        [
          Lir.Instr.Load { dst = v; ptr = V.Reg ghost };
          Lir.Instr.Br "nowhere";
        ];
      blk "zeta" [ Lir.Instr.Ret None; Lir.Instr.Ret None ];
      blk "alpha"
        [
          Lir.Instr.Call { dst = None; callee = "callee"; args = [ V.Reg v ] };
        ];
      blk "mid"
        [
          Lir.Instr.Call { dst = None; callee = "missing"; args = [] };
          Lir.Instr.Br "zeta";
        ];
    ];
  Lir.Irmod.add_func m f;
  Lir.Irmod.add_func m (Lir.Func.create ~fname:"g" ~params:[] ~ret:T.Void);
  let got =
    List.map
      (fun { Lir.Verify.where; what } -> (where, what))
      (Lir.Verify.check m)
  in
  Alcotest.(check (list (pair string string)))
    "errors"
    [
      ("f", "duplicate block label alpha");
      ("f", "zeta: terminator in block middle");
      ("f", "alpha: block not sealed by a terminator");
      ("f", "alpha: branch to unknown label nowhere");
      ("f", "use before def of %ghost.2 in: %v.3 = load i64, %ghost.2");
      ("f", "call arity mismatch: call @callee(%v.3)");
      ("f", "call to unknown function missing");
      ("g", "function has no blocks");
    ]
    got

(* --- cfg ---------------------------------------------------------------- *)

let diamond () =
  let m = mk_module () in
  B.define m "f" ~params:[ ("c", T.I1) ] ~ret:T.Void (fun b ->
      let lt = B.fresh_label b "left" in
      let rt = B.fresh_label b "right" in
      let j = B.fresh_label b "join" in
      B.cond_br b (B.param b 0) lt rt;
      B.start_block b lt;
      B.br b j;
      B.start_block b rt;
      B.br b j;
      B.start_block b j;
      B.ret_void b);
  Lir.Irmod.find_func m "f"

let test_cfg_successors () =
  let f = diamond () in
  let cfg = Lir.Cfg.of_func f in
  Alcotest.(check int) "entry has two" 2
    (List.length (Lir.Cfg.successors cfg "entry"));
  Alcotest.(check int) "join has none" 0
    (List.length
       (Lir.Cfg.successors cfg
          (List.nth (List.map (fun b -> b.Lir.Block.label) f.Lir.Func.blocks) 3)))

let test_cfg_predecessors () =
  let f = diamond () in
  let cfg = Lir.Cfg.of_func f in
  let join = List.nth f.Lir.Func.blocks 3 in
  Alcotest.(check int) "join has two preds" 2
    (List.length (Lir.Cfg.predecessors cfg join.Lir.Block.label))

let test_cfg_rpo () =
  let f = diamond () in
  let cfg = Lir.Cfg.of_func f in
  let rpo = Lir.Cfg.reverse_postorder cfg in
  Alcotest.(check string) "entry first" "entry" (List.hd rpo);
  Alcotest.(check int) "all blocks" 4 (List.length rpo)

(* --- printer & intrinsics ----------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_printer_smoke () =
  let m = build_simple () in
  let text = Lir.Printer.module_to_string m in
  Alcotest.(check bool) "mentions main" true (contains text "@main");
  Alcotest.(check bool) "mentions global" true (contains text "@counter")

let test_printer_location () =
  let m = build_simple () in
  Lir.Irmod.layout m;
  let s = Lir.Printer.instr_with_location m 0 in
  Alcotest.(check bool) "has pc" true (String.length s > 10)

let test_intrinsics_table () =
  Alcotest.(check bool) "malloc known" true
    (Lir.Intrinsics.is_intrinsic Lir.Intrinsics.malloc);
  Alcotest.(check bool) "unknown rejected" false
    (Lir.Intrinsics.is_intrinsic "fopen");
  (match Lir.Intrinsics.lookup Lir.Intrinsics.thread_create with
  | Some { Lir.Intrinsics.arg_count; _ } ->
    Alcotest.(check int) "thread_create arity" 2 arg_count
  | None -> Alcotest.fail "thread_create missing");
  Alcotest.(check int) "all intrinsics listed" 16
    (List.length Lir.Intrinsics.all)

(* --- layout tables under rewrites ---------------------------------------- *)

let rewrite_fixture () =
  let m = mk_module () in
  Lir.Irmod.declare_global m "g" T.I64;
  B.define m "helper" ~params:[] ~ret:T.Void (fun b ->
      B.store b ~value:(V.i64 1) ~ptr:(V.Global "g");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let next = B.fresh_label b "next" in
      B.store b ~value:(V.i64 2) ~ptr:(V.Global "g");
      B.br b next;
      B.start_block b next;
      B.call_void b "helper" [];
      B.ret_void b);
  m

let iid_where m fname pred =
  let found = ref None in
  Lir.Irmod.iter_instrs m (fun f _ i ->
      if f.Lir.Func.fname = fname && !found = None && pred i.Lir.Instr.kind then
        found := Some i.Lir.Instr.iid);
  Option.get !found

(* The tables a module keeps across relayouts must answer exactly what a
   module holding the same functions, laid out once, answers — stale
   iids included. *)
let check_tables_fresh m what =
  let fresh = Lir.Irmod.create "fresh" in
  List.iter (Lir.Irmod.add_func fresh) (Lir.Irmod.funcs m);
  Lir.Irmod.layout fresh;
  let hi = ref 0 in
  Lir.Irmod.iter_instrs fresh (fun _ _ i -> hi := max !hi i.Lir.Instr.iid);
  let find f iid = match f iid with v -> Some v | exception Not_found -> None in
  for iid = -2 to !hi + 3 do
    let label l = Printf.sprintf "%s: %s %d" what l iid in
    Alcotest.(check bool) (label "instr_by_iid") true
      (match
         (find (Lir.Irmod.instr_by_iid m) iid, find (Lir.Irmod.instr_by_iid fresh) iid)
       with
      | Some a, Some b -> a == b
      | None, None -> true
      | Some _, None | None, Some _ -> false);
    Alcotest.(check bool) (label "location_of_iid") true
      (match
         ( find (Lir.Irmod.location_of_iid m) iid,
           find (Lir.Irmod.location_of_iid fresh) iid )
       with
      | Some (f, b), Some (f', b') -> f == f' && b == b'
      | None, None -> true
      | Some _, None | None, Some _ -> false)
  done

let test_rewrite_tables_match_fresh_layout () =
  let m = rewrite_fixture () in
  check_tables_fresh m "built";
  let is_store = function Lir.Instr.Store _ -> true | _ -> false in
  let is_call = function Lir.Instr.Call _ -> true | _ -> false in
  let work n =
    Lir.Instr.Call
      { dst = None; callee = Lir.Intrinsics.work; args = [ V.i64 n ] }
  in
  let store = iid_where m "main" is_store in
  ignore (Lir.Rewrite.insert_before m ~iid:store [ work 1; work 2 ]);
  check_tables_fresh m "insert_before";
  ignore (Lir.Rewrite.insert_after m ~iid:store [ work 3 ]);
  check_tables_fresh m "insert_after";
  let main = Lir.Irmod.find_func m "main" in
  ignore (Lir.Rewrite.append_block m main ~label:"extra" [ Lir.Instr.Ret None ]);
  check_tables_fresh m "append_block";
  let call = iid_where m "main" is_call in
  ignore (Lir.Rewrite.split_before m ~iid:call ~label:"cont");
  check_tables_fresh m "split_before";
  (* [retarget] swaps in a new instruction under the same iid: the table
     must hand out the new one. *)
  let entry = Lir.Func.entry main in
  let br = Lir.Block.terminator entry in
  let next =
    match br.Lir.Instr.kind with Lir.Instr.Br l -> l | _ -> Alcotest.fail "no br"
  in
  Lir.Rewrite.retarget m entry ~from_:next ~to_:"extra";
  check_tables_fresh m "retarget";
  let br' = Lir.Irmod.instr_by_iid m br.Lir.Instr.iid in
  Alcotest.(check bool) "retargeted instruction" true
    (br' == Lir.Block.terminator entry && br' != br);
  Alcotest.(check bool) "new target" true (br'.Lir.Instr.kind = Lir.Instr.Br "extra");
  (* An instruction cut out of its block leaves no stale entry behind. *)
  let cut = List.hd entry.Lir.Block.instrs in
  entry.Lir.Block.instrs <- List.tl entry.Lir.Block.instrs;
  Lir.Irmod.invalidate_layout m;
  check_tables_fresh m "removal";
  Alcotest.check_raises "removed iid" Not_found (fun () ->
      ignore (Lir.Irmod.instr_by_iid m cut.Lir.Instr.iid))

let test_layout_unknown_iids () =
  let m = rewrite_fixture () in
  Lir.Irmod.layout m;
  List.iter
    (fun iid ->
      Alcotest.check_raises (Printf.sprintf "instr_by_iid %d" iid) Not_found
        (fun () -> ignore (Lir.Irmod.instr_by_iid m iid));
      Alcotest.check_raises (Printf.sprintf "location_of_iid %d" iid) Not_found
        (fun () -> ignore (Lir.Irmod.location_of_iid m iid)))
    [ -1; min_int; Lir.Irmod.instr_count m; Lir.Irmod.fresh_iid m; max_int ]

(* --- copies of corpus modules ----------------------------------------- *)

let corpus_modules () =
  List.map
    (fun (bug : Corpus.Bug.t) -> (bug, (bug.build ()).Corpus.Bug.m))
    Corpus.Registry.all

let pcs_of m =
  Lir.Irmod.layout m;
  let acc = ref [] in
  Lir.Irmod.iter_instrs m (fun _ _ i -> acc := (i.Lir.Instr.iid, i.Lir.Instr.pc) :: !acc);
  List.rev !acc

(* A copy is indistinguishable from a fresh build: the same text, the
   same pcs once laid out, and the same next iid and register — whether
   the original was laid out (as the fix loop's collected module is) or
   not. *)
let test_copy_matches_fresh_build () =
  List.iter
    (fun ((bug : Corpus.Bug.t), m) ->
      List.iter
        (fun laid_out ->
          if laid_out then Lir.Irmod.layout m;
          let c = Lir.Irmod.copy m in
          let fresh = (bug.build ()).Corpus.Bug.m in
          let what l = Printf.sprintf "%s (laid out %b): %s" bug.id laid_out l in
          Alcotest.(check string) (what "text")
            (Lir.Printer.module_to_string fresh)
            (Lir.Printer.module_to_string c);
          Alcotest.(check bool) (what "pcs") true (pcs_of fresh = pcs_of c);
          Alcotest.(check int) (what "instr count")
            (Lir.Irmod.instr_count fresh) (Lir.Irmod.instr_count c);
          Alcotest.(check int) (what "next iid") (Lir.Irmod.fresh_iid fresh)
            (Lir.Irmod.fresh_iid c);
          let reg m = (Lir.Irmod.fresh_reg m ~name:"r" ~ty:T.I64).V.rname in
          Alcotest.(check string) (what "next register") (reg fresh) (reg c))
        [ false; true ])
    (corpus_modules ())

(* Edits to a copy — spliced instructions, split blocks, appended
   blocks, retargeted branches, new globals — never reach the original:
   its text, pcs and lookups are what they were. *)
let test_copy_edits_stay_in_copy () =
  List.iter
    (fun ((bug : Corpus.Bug.t), m) ->
      Lir.Irmod.layout m;
      let text = Lir.Printer.module_to_string m and pcs = pcs_of m in
      let gen = Lir.Irmod.generation m in
      let c = Lir.Irmod.copy m in
      let g = Lir.Rewrite.fresh_global c ~base:"__copy_only" T.I64 in
      let work = Lir.Instr.Call { dst = None; callee = Lir.Intrinsics.work; args = [ V.i64 1 ] } in
      List.iter
        (fun (f : Lir.Func.t) ->
          let first = List.hd (Lir.Func.entry f).Lir.Block.instrs in
          ignore (Lir.Rewrite.insert_before c ~iid:first.Lir.Instr.iid [ work ]);
          let label = Lir.Rewrite.fresh_label f ~base:"__copy_cont" in
          ignore (Lir.Rewrite.split_before c ~iid:first.Lir.Instr.iid ~label);
          let extra = Lir.Rewrite.fresh_label f ~base:"__copy_extra" in
          ignore
            (Lir.Rewrite.append_block c f ~label:extra [ work; Lir.Instr.Br label ]);
          Lir.Rewrite.retarget c (Lir.Func.entry f) ~from_:label ~to_:extra)
        (Lir.Irmod.funcs c);
      Lir.Verify.check_exn c;
      Lir.Irmod.layout c;
      Alcotest.(check bool) (bug.id ^ ": copy changed") true
        (Lir.Printer.module_to_string c <> text);
      Alcotest.(check string) (bug.id ^ ": original text") text
        (Lir.Printer.module_to_string m);
      Alcotest.(check bool) (bug.id ^ ": original pcs") true (pcs_of m = pcs);
      Alcotest.(check int) (bug.id ^ ": original not relaid out") gen
        (Lir.Irmod.generation m);
      Alcotest.check_raises (bug.id ^ ": global stays in the copy") Not_found
        (fun () -> ignore (Lir.Irmod.global_ty m g));
      Lir.Irmod.iter_instrs m (fun f b i ->
          let f', b' = Lir.Irmod.location_of_iid m i.Lir.Instr.iid in
          Alcotest.(check bool) (bug.id ^ ": original lookups") true
            (Lir.Irmod.instr_by_iid m i.Lir.Instr.iid == i && f' == f && b' == b)))
    (corpus_modules ())

(* --- block lookups against a reference walk ------------------------- *)

(* Every block-start query on every corpus module, for every pc from 0
   to a page past the end — below 0x1000, unaligned, inter-function
   padding and past the end included — answers what a walk over the
   laid-out blocks answers. *)
let test_block_lookups_match_walk () =
  List.iter
    (fun ((bug : Corpus.Bug.t), m) ->
      Lir.Irmod.layout m;
      let starts = Hashtbl.create 256 and hi = ref 0 in
      List.iter
        (fun (f : Lir.Func.t) ->
          List.iter
            (fun (b : Lir.Block.t) ->
              match b.Lir.Block.instrs with
              | [] -> ()
              | i :: _ ->
                Hashtbl.replace starts i.Lir.Instr.pc (f, b);
                Alcotest.(check int)
                  (Printf.sprintf "%s: block_start_pc %s/%s" bug.id f.fname
                     b.Lir.Block.label)
                  i.Lir.Instr.pc
                  (Lir.Irmod.block_start_pc m ~fname:f.fname ~label:b.Lir.Block.label))
            f.Lir.Func.blocks)
        (Lir.Irmod.funcs m);
      Lir.Irmod.iter_instrs m (fun _ _ i -> hi := max !hi i.Lir.Instr.pc);
      for pc = 0 to !hi + 0x1000 do
        let expect = Hashtbl.find_opt starts pc in
        if Lir.Irmod.is_block_start m pc <> Option.is_some expect then
          Alcotest.failf "%s: is_block_start 0x%x" bug.id pc;
        match (expect, Lir.Irmod.block_at_pc m pc) with
        | Some (f, b), (f', b') ->
          if not (f == f' && b == b') then
            Alcotest.failf "%s: block_at_pc 0x%x" bug.id pc
        | None, _ -> Alcotest.failf "%s: block_at_pc 0x%x resolved" bug.id pc
        | exception Not_found ->
          if expect <> None then Alcotest.failf "%s: block_at_pc 0x%x missed" bug.id pc
      done;
      List.iter
        (fun pc ->
          Alcotest.(check bool) (Printf.sprintf "%s: pc %d" bug.id pc) false
            (Lir.Irmod.is_block_start m pc))
        [ -4; -1; min_int; max_int; max_int - 3 ];
      Alcotest.check_raises (bug.id ^ ": unknown label") Not_found (fun () ->
          ignore (Lir.Irmod.block_start_pc m ~fname:bug.entry ~label:"__none"));
      Alcotest.check_raises (bug.id ^ ": unknown function") Not_found (fun () ->
          ignore (Lir.Irmod.block_start_pc m ~fname:"__none" ~label:"entry")))
    (corpus_modules ())

let tests =
  [
    ( "ir.types",
      [
        Alcotest.test_case "equality" `Quick test_ty_equal;
        Alcotest.test_case "pointee" `Quick test_ty_pointee;
        Alcotest.test_case "sizes" `Quick test_ty_sizes;
        Alcotest.test_case "to_string" `Quick test_ty_to_string;
        Alcotest.test_case "value types" `Quick test_value_types;
      ] );
    ( "ir.builder",
      [
        Alcotest.test_case "simple function" `Quick test_builder_simple;
        Alcotest.test_case "layout lookups" `Quick test_layout_lookup;
        Alcotest.test_case "pcs distinct" `Quick test_layout_pcs_distinct;
        Alcotest.test_case "block starts" `Quick test_layout_block_starts;
        Alcotest.test_case "if/else shape" `Quick test_builder_if_else;
        Alcotest.test_case "for loop" `Quick test_builder_for_loop;
        Alcotest.test_case "gep bounds" `Quick test_builder_gep_checks;
        Alcotest.test_case "last_iid" `Quick test_builder_last_iid;
        Alcotest.test_case "unsealed rejected" `Quick test_builder_unsealed_rejected;
      ] );
    ( "ir.layout",
      [
        Alcotest.test_case "tables match a fresh layout after each edit" `Quick
          test_rewrite_tables_match_fresh_layout;
        Alcotest.test_case "unknown iids raise Not_found" `Quick
          test_layout_unknown_iids;
        Alcotest.test_case "block lookups match a walk" `Quick
          test_block_lookups_match_walk;
      ] );
    ( "ir.copy",
      [
        Alcotest.test_case "copy matches a fresh build" `Quick
          test_copy_matches_fresh_build;
        Alcotest.test_case "edits stay in the copy" `Quick
          test_copy_edits_stay_in_copy;
      ] );
    ( "ir.verify",
      [
        Alcotest.test_case "clean module" `Quick test_verify_clean;
        Alcotest.test_case "unknown callee" `Quick test_verify_unknown_callee;
        Alcotest.test_case "call arity" `Quick test_verify_arity_mismatch;
        Alcotest.test_case "intrinsic arity" `Quick test_verify_intrinsic_arity;
        Alcotest.test_case "bad branch target" `Quick test_verify_bad_branch_target;
        Alcotest.test_case "unsealed block" `Quick test_verify_unsealed_block;
        Alcotest.test_case "error list and order" `Quick test_verify_error_list;
        Alcotest.test_case "use before def" `Quick test_verify_use_before_def;
        Alcotest.test_case "store type mismatch" `Quick
          test_verify_store_type_mismatch;
        Alcotest.test_case "duplicate labels" `Quick test_verify_duplicate_labels;
      ] );
    ( "ir.cfg",
      [
        Alcotest.test_case "successors" `Quick test_cfg_successors;
        Alcotest.test_case "predecessors" `Quick test_cfg_predecessors;
        Alcotest.test_case "reverse postorder" `Quick test_cfg_rpo;
      ] );
    ( "ir.misc",
      [
        Alcotest.test_case "printer module" `Quick test_printer_smoke;
        Alcotest.test_case "printer location" `Quick test_printer_location;
        Alcotest.test_case "intrinsics table" `Quick test_intrinsics_table;
      ] );
  ]
