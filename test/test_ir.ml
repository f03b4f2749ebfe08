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
    ( "ir.verify",
      [
        Alcotest.test_case "clean module" `Quick test_verify_clean;
        Alcotest.test_case "unknown callee" `Quick test_verify_unknown_callee;
        Alcotest.test_case "call arity" `Quick test_verify_arity_mismatch;
        Alcotest.test_case "intrinsic arity" `Quick test_verify_intrinsic_arity;
        Alcotest.test_case "bad branch target" `Quick test_verify_bad_branch_target;
        Alcotest.test_case "unsealed block" `Quick test_verify_unsealed_block;
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
