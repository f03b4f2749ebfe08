(* Tests for the discrete-event simulator: instruction semantics, memory
   faults, mutexes, deadlock detection, threads, hooks and determinism. *)

module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty

let run ?(seed = 1) ?hooks m =
  let config =
    match hooks with
    | None -> { Sim.Interp.default_config with seed }
    | Some hooks -> { Sim.Interp.default_config with seed; hooks }
  in
  Sim.Interp.run ~config m ~entry:"main"

let completed r =
  match r.Sim.Interp.outcome with Sim.Interp.Completed -> true | _ -> false

let failure_of r =
  match r.Sim.Interp.outcome with
  | Sim.Interp.Failed { failure; _ } -> Some failure
  | _ -> None

let output r = r.Sim.Interp.output

(* Build a main that prints the result of [body]. *)
let expr_module body =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  ignore (Lir.Irmod.declare_struct m "Pair" [ T.I64; T.I64 ]);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let v = body b in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  m

let eval body = output (run (expr_module body))

(* --- arithmetic & data flow -------------------------------------------- *)

let test_arith () =
  Alcotest.(check (list int)) "add" [ 7 ]
    (eval (fun b -> B.add b (V.i64 3) (V.i64 4)));
  Alcotest.(check (list int)) "sub" [ -1 ]
    (eval (fun b -> B.sub b (V.i64 3) (V.i64 4)));
  Alcotest.(check (list int)) "mul" [ 12 ]
    (eval (fun b -> B.mul b (V.i64 3) (V.i64 4)));
  Alcotest.(check (list int)) "sdiv" [ 3 ]
    (eval (fun b -> B.binop b Lir.Instr.Sdiv (V.i64 7) (V.i64 2)));
  Alcotest.(check (list int)) "srem" [ 1 ]
    (eval (fun b -> B.binop b Lir.Instr.Srem (V.i64 7) (V.i64 2)));
  Alcotest.(check (list int)) "xor" [ 6 ]
    (eval (fun b -> B.binop b Lir.Instr.Xor (V.i64 3) (V.i64 5)));
  Alcotest.(check (list int)) "shl" [ 12 ]
    (eval (fun b -> B.binop b Lir.Instr.Shl (V.i64 3) (V.i64 2)))

let test_icmp () =
  let check name cmp a b expect =
    Alcotest.(check (list int)) name [ expect ]
      (eval (fun bb ->
           let c = B.icmp bb cmp (V.i64 a) (V.i64 b) in
           B.cast bb c T.I64))
  in
  check "slt true" Lir.Instr.Slt 1 2 1;
  check "slt false" Lir.Instr.Slt 2 1 0;
  check "eq" Lir.Instr.Eq 5 5 1;
  check "ne" Lir.Instr.Ne 5 5 0;
  check "sge" Lir.Instr.Sge 5 5 1

let test_memory_roundtrip () =
  Alcotest.(check (list int)) "alloca store/load" [ 42 ]
    (eval (fun b ->
         let p = B.alloca b T.I64 in
         B.store b ~value:(V.i64 42) ~ptr:p;
         B.load b p))

let test_gep_fields_distinct () =
  Alcotest.(check (list int)) "fields do not clobber" [ 10 ]
    (eval (fun b ->
         let p = B.malloc b (T.Struct "Pair") in
         B.store b ~value:(V.i64 10) ~ptr:(B.gep b p 0);
         B.store b ~value:(V.i64 20) ~ptr:(B.gep b p 1);
         B.load b (B.gep b p 0)))

let test_array_indexing () =
  Alcotest.(check (list int)) "array cells" [ 5 ]
    (eval (fun b ->
         let arr = B.alloca b (T.Array (T.I64, 4)) in
         B.store b ~value:(V.i64 5) ~ptr:(B.index b arr (V.i64 2));
         B.store b ~value:(V.i64 9) ~ptr:(B.index b arr (V.i64 3));
         B.load b (B.index b arr (V.i64 2))))

let test_call_and_return () =
  let m = Lir.Irmod.create "t" in
  B.define m "double" ~params:[ ("x", T.I64) ] ~ret:T.I64 (fun b ->
      B.ret b (B.add b (B.param b 0) (B.param b 0)));
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let v = B.call b ~ret:T.I64 "double" [ V.i64 21 ] in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  Alcotest.(check (list int)) "call result" [ 42 ] (output (run m))

let test_recursion () =
  let m = Lir.Irmod.create "t" in
  B.define m "fact" ~params:[ ("n", T.I64) ] ~ret:T.I64 (fun b ->
      let n = B.param b 0 in
      let base = B.icmp b Lir.Instr.Sle n (V.i64 1) in
      let lt = B.fresh_label b "base" in
      let le = B.fresh_label b "rec" in
      B.cond_br b base lt le;
      B.start_block b lt;
      B.ret b (V.i64 1);
      B.start_block b le;
      let rec_v = B.call b ~ret:T.I64 "fact" [ B.sub b n (V.i64 1) ] in
      B.ret b (B.mul b n rec_v));
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let v = B.call b ~ret:T.I64 "fact" [ V.i64 5 ] in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  Alcotest.(check (list int)) "5!" [ 120 ] (output (run m))

let test_loop_sum () =
  Alcotest.(check (list int)) "sum 0..9" [ 45 ]
    (eval (fun b ->
         let acc = B.alloca b T.I64 in
         B.store b ~value:(V.i64 0) ~ptr:acc;
         B.for_ b ~from:0 ~below:(V.i64 10) (fun i ->
             let v = B.load b acc in
             B.store b ~value:(B.add b v i) ~ptr:acc);
         B.load b acc))

(* --- faults ------------------------------------------------------------- *)

let test_null_deref () =
  let m = expr_module (fun b -> B.load b (V.Null (T.Ptr T.I64))) in
  match failure_of (run m) with
  | Some (Sim.Failure.Crash { reason = Sim.Failure.Null_deref; _ }) -> ()
  | _ -> Alcotest.fail "expected null-deref crash"

let test_use_after_free () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Pair" [ T.I64; T.I64 ]);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let p = B.malloc b (T.Struct "Pair") in
      B.store b ~value:(V.i64 1) ~ptr:(B.gep b p 0);
      B.call_void b Lir.Intrinsics.free [ B.cast b p (T.Ptr T.I8) ];
      let v = B.load b (B.gep b p 0) in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Crash { reason = Sim.Failure.Use_after_free; _ }) -> ()
  | _ -> Alcotest.fail "expected UAF crash"

let test_assert_failure () =
  let m = Lir.Irmod.create "t" in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.assert_true b (V.Imm (0L, T.I1));
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Assert_fail _) -> ()
  | _ -> Alcotest.fail "expected assertion failure"

let test_double_free_faults () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Pair" [ T.I64; T.I64 ]);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let p = B.malloc b (T.Struct "Pair") in
      let raw = B.cast b p (T.Ptr T.I8) in
      B.call_void b Lir.Intrinsics.free [ raw ];
      B.call_void b Lir.Intrinsics.free [ raw ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Crash _) -> ()
  | _ -> Alcotest.fail "expected crash on double free"

(* Division and remainder by zero are structured fail-stop events (a
   hardware SIGFPE), not host-level [failwith]s that would abort an
   embedding validation sweep. *)
let test_div_by_zero_structured () =
  let m =
    expr_module (fun b -> B.binop b Lir.Instr.Sdiv (V.i64 7) (V.i64 0))
  in
  match failure_of (run m) with
  | Some (Sim.Failure.Arith_fault { fault = Sim.Failure.Div_by_zero; _ } as f)
    ->
    Alcotest.(check string) "kind" "arith-fault" (Sim.Failure.kind_name f)
  | _ -> Alcotest.fail "expected a structured div-by-zero failure"

let test_rem_by_zero_structured () =
  let m =
    expr_module (fun b -> B.binop b Lir.Instr.Srem (V.i64 7) (V.i64 0))
  in
  match failure_of (run m) with
  | Some (Sim.Failure.Arith_fault { fault = Sim.Failure.Rem_by_zero; _ }) -> ()
  | _ -> Alcotest.fail "expected a structured rem-by-zero failure"

(* A register read the verifier's block-order approximation accepts but no
   executed instruction defined: jump over the defining block.  Must be a
   structured failure, not an escaped host exception. *)
let test_undef_read_structured () =
  let m = Lir.Irmod.create "t" in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let def = B.fresh_label b "def" in
      let use = B.fresh_label b "use" in
      let skip = B.icmp b Lir.Instr.Eq (V.i64 0) (V.i64 0) in
      B.cond_br b skip use def;
      B.start_block b def;
      let x = B.add b (V.i64 1) (V.i64 2) in
      B.br b use;
      B.start_block b use;
      B.call_void b Lir.Intrinsics.print_i64 [ x ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Undef_read { rname; _ } as f) ->
    Alcotest.(check string) "kind" "undef-read" (Sim.Failure.kind_name f);
    Alcotest.(check bool) "names the register" true (String.length rname > 0)
  | _ -> Alcotest.fail "expected a structured undefined-register failure"

(* Register slots are reused across frames of the same function: a value
   one call defined must not read as defined in the next call. *)
let test_undef_read_fresh_frame () =
  let m = Lir.Irmod.create "t" in
  B.define m "f" ~params:[ ("define", T.I1) ] ~ret:T.I64 (fun b ->
      let def = B.fresh_label b "def" in
      let use = B.fresh_label b "use" in
      B.cond_br b (B.param b 0) def use;
      B.start_block b def;
      let x = B.add b (V.i64 40) (V.i64 2) in
      B.br b use;
      B.start_block b use;
      B.ret b x);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let v = B.call b ~ret:T.I64 "f" [ V.bool_true ] in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      let w = B.call b ~ret:T.I64 "f" [ V.bool_false ] in
      B.call_void b Lir.Intrinsics.print_i64 [ w ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  let r = run m in
  Alcotest.(check (list int)) "first call printed" [ 42 ] (output r);
  match failure_of r with
  | Some (Sim.Failure.Undef_read _) -> ()
  | _ -> Alcotest.fail "second call must read an undefined register"

(* Lowering resolves sizes, offsets and callees once per module, but an
   instruction it cannot resolve must only fail when it executes, with
   the same host exception as before.  [bad] holds a GEP through an i64
   pointer and a call to a function that does not exist. *)
let malformed_module ~call_bad =
  let m = Lir.Irmod.create "t" in
  Lir.Irmod.declare_global m "g" T.I64;
  B.define m "bad" ~params:[ ("which", T.I1) ] ~ret:T.Void (fun b ->
      let gep = B.fresh_label b "gep" in
      let call = B.fresh_label b "call" in
      B.cond_br b (B.param b 0) gep call;
      B.start_block b gep;
      B.ret_void b;
      B.start_block b call;
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.print_i64 [ V.i64 1 ];
      (match call_bad with
      | Some which -> B.call_void b "bad" [ which ]
      | None -> ());
      B.ret_void b);
  let f = Lir.Irmod.find_func m "bad" in
  let first (b : Lir.Block.t) = (List.hd b.Lir.Block.instrs).Lir.Instr.iid in
  let dst = Lir.Irmod.fresh_reg m ~name:"p" ~ty:(T.Ptr T.I64) in
  ignore
    (Lir.Rewrite.insert_before m
       ~iid:(first (List.nth f.Lir.Func.blocks 1))
       [ Lir.Instr.Gep { dst; base = V.Global "g"; field = 0 } ]);
  ignore
    (Lir.Rewrite.insert_before m
       ~iid:(first (List.nth f.Lir.Func.blocks 2))
       [ Lir.Instr.Call { dst = None; callee = "missing"; args = [] } ]);
  m

let test_malformed_fails_only_when_executed () =
  let r = run (malformed_module ~call_bad:None) in
  Alcotest.(check bool) "cold malformed code is harmless" true (completed r);
  Alcotest.(check (list int)) "output" [ 1 ] (output r);
  (match run (malformed_module ~call_bad:(Some V.bool_true)) with
  | _ -> Alcotest.fail "executing the GEP must raise"
  | exception Failure msg ->
    Alcotest.(check string) "gep message" "Interp: gep base not a struct pointer"
      msg);
  match run (malformed_module ~call_bad:(Some V.bool_false)) with
  | _ -> Alcotest.fail "calling an unknown function must raise"
  | exception Not_found -> ()

(* The run image is cached per module layout: an in-place rewrite (which
   invalidates the layout) must be picked up by the next run. *)
let test_image_follows_rewrites () =
  let m = expr_module (fun b -> B.add b (V.i64 1) (V.i64 2)) in
  Alcotest.(check (list int)) "before" [ 3 ] (output (run m));
  let print =
    let found = ref None in
    Lir.Irmod.iter_instrs m (fun _ _ i ->
        match i.Lir.Instr.kind with
        | Lir.Instr.Call { callee; _ }
          when String.equal callee Lir.Intrinsics.print_i64 ->
          found := Some i.Lir.Instr.iid
        | _ -> ());
    Option.get !found
  in
  ignore
    (Lir.Rewrite.insert_before m ~iid:print
       [
         Lir.Instr.Call
           { dst = None; callee = Lir.Intrinsics.print_i64; args = [ V.i64 7 ] };
       ]);
  Alcotest.(check (list int)) "after" [ 7; 3 ] (output (run m))

(* thread_create whose entry pc names no function: a structured
   thread-misuse at the faulting call. *)
let test_create_not_function_structured () =
  let m = Lir.Irmod.create "t" in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let t =
        B.call b ~ret:T.I64 Lir.Intrinsics.thread_create
          [ V.i64 987_654; V.i64 0 ]
      in
      ignore t;
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some
      (Sim.Failure.Thread_misuse { misuse = Sim.Failure.Create_not_function; _ }
       as f) ->
    Alcotest.(check string) "kind" "thread-misuse" (Sim.Failure.kind_name f)
  | _ -> Alcotest.fail "expected a structured create-not-function failure"

(* Joining a tid that was never spawned. *)
let test_join_unknown_structured () =
  let m = Lir.Irmod.create "t" in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.thread_join [ V.i64 99 ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Thread_misuse { misuse = Sim.Failure.Join_unknown; _ })
    ->
    ()
  | _ -> Alcotest.fail "expected a structured join-of-unknown-tid failure"

(* --- threads & locks ---------------------------------------------------- *)

let counter_module ~locked ~threads ~iters =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "counter" T.I64;
  B.define m "worker" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.for_ b ~from:0 ~below:(V.i64 iters) (fun _ ->
          if locked then B.mutex_lock b (V.Global "lock");
          let v = B.load b (V.Global "counter") in
          B.io_delay b ~ns:50;
          B.store b ~value:(B.add b v (V.i64 1)) ~ptr:(V.Global "counter");
          if locked then B.mutex_unlock b (V.Global "lock"));
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      let tids = List.init threads (fun i -> B.spawn b "worker" (V.i64 i)) in
      List.iter (fun t -> B.join b t) tids;
      let v = B.load b (V.Global "counter") in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  m

let test_locked_counter_exact () =
  let m = counter_module ~locked:true ~threads:4 ~iters:100 in
  Alcotest.(check (list int)) "no lost updates" [ 400 ] (output (run m))

let test_unlocked_counter_races () =
  (* The delay inside the read-modify-write makes lost updates certain. *)
  let m = counter_module ~locked:false ~threads:4 ~iters:100 in
  match output (run m) with
  | [ v ] -> Alcotest.(check bool) "updates lost" true (v < 400)
  | _ -> Alcotest.fail "expected one output"

let test_join_waits () =
  let m = Lir.Irmod.create "t" in
  Lir.Irmod.declare_global m "flag" T.I64;
  B.define m "child" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.io_delay b ~ns:10_000;
      B.store b ~value:(V.i64 1) ~ptr:(V.Global "flag");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let t = B.spawn b "child" (V.i64 0) in
      B.join b t;
      let v = B.load b (V.Global "flag") in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  Alcotest.(check (list int)) "join ordered" [ 1 ] (output (run m))

let two_lock_deadlock_module ~delay =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "la" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "lb" (T.Struct "Mutex");
  let worker name first second =
    B.define m name ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
        B.mutex_lock b (V.Global first);
        B.work b ~ns:delay;
        B.mutex_lock b (V.Global second);
        B.mutex_unlock b (V.Global second);
        B.mutex_unlock b (V.Global first);
        B.ret_void b)
  in
  worker "t1" "la" "lb";
  worker "t2" "lb" "la";
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "la" ];
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lb" ];
      let a = B.spawn b "t1" (V.i64 0) in
      let c = B.spawn b "t2" (V.i64 0) in
      B.join b a;
      B.join b c;
      B.ret_void b);
  Lir.Verify.check_exn m;
  m

let test_deadlock_detected () =
  let m = two_lock_deadlock_module ~delay:100_000 in
  match failure_of (run m) with
  | Some (Sim.Failure.Deadlock { waiters }) ->
    Alcotest.(check int) "two waiters" 2 (List.length waiters)
  | _ -> Alcotest.fail "expected deadlock"

let test_no_deadlock_when_disjoint () =
  (* Without overlap the same program completes. *)
  let m = two_lock_deadlock_module ~delay:0 in
  (* delay 0 can still deadlock by scheduling; retry over seeds: at least
     one seed must complete, showing detection is not a false positive. *)
  let any_completed =
    List.exists (fun seed -> completed (run ~seed m)) [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some interleavings complete" true any_completed

let test_three_way_deadlock () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  List.iter (fun g -> Lir.Irmod.declare_global m g (T.Struct "Mutex"))
    [ "l0"; "l1"; "l2" ];
  let worker name first second =
    B.define m name ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
        B.mutex_lock b (V.Global first);
        B.work b ~ns:100_000;
        B.mutex_lock b (V.Global second);
        B.mutex_unlock b (V.Global second);
        B.mutex_unlock b (V.Global first);
        B.ret_void b)
  in
  worker "w0" "l0" "l1";
  worker "w1" "l1" "l2";
  worker "w2" "l2" "l0";
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      List.iter
        (fun g -> B.call_void b Lir.Intrinsics.mutex_init [ V.Global g ])
        [ "l0"; "l1"; "l2" ];
      let ts = List.map (fun w -> B.spawn b w (V.i64 0)) [ "w0"; "w1"; "w2" ] in
      List.iter (fun t -> B.join b t) ts;
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Deadlock { waiters }) ->
    Alcotest.(check int) "three waiters" 3 (List.length waiters)
  | _ -> Alcotest.fail "expected 3-way deadlock"

let test_self_deadlock () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "l" (T.Struct "Mutex");
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "l" ];
      B.mutex_lock b (V.Global "l");
      B.mutex_lock b (V.Global "l");
      B.ret_void b);
  Lir.Verify.check_exn m;
  (* A self-relock is an API misuse reported at the faulting call, not a
     one-thread "deadlock cycle". *)
  match failure_of (run m) with
  | Some (Sim.Failure.Lock_misuse { misuse = Sim.Failure.Relock; tid; _ }) ->
    Alcotest.(check int) "faulting thread" 0 tid
  | _ -> Alcotest.fail "expected relock misuse"

let test_unlock_unheld_is_program_error () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "l" (T.Struct "Mutex");
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.mutex_unlock b (V.Global "l");
      B.ret_void b);
  Lir.Verify.check_exn m;
  (* Structured failure, not a host exception escaping the simulator. *)
  match failure_of (run m) with
  | Some (Sim.Failure.Lock_misuse { misuse = Sim.Failure.Unlock_free; _ }) -> ()
  | _ -> Alcotest.fail "expected unlock-free misuse"

let test_double_unlock_is_program_error () =
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "l" (T.Struct "Mutex");
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "l" ];
      B.mutex_lock b (V.Global "l");
      B.mutex_unlock b (V.Global "l");
      B.mutex_unlock b (V.Global "l");
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Lock_misuse { misuse = Sim.Failure.Unlock_free; _ }) -> ()
  | _ -> Alcotest.fail "expected double-unlock misuse"

let test_unlock_by_non_owner_is_program_error () =
  (* The child unlocks a mutex main holds: the failure names the child and
     main's ownership survives (owner state is not corrupted). *)
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "l" (T.Struct "Mutex");
  B.define m "thief" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.mutex_unlock b (V.Global "l");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "l" ];
      B.mutex_lock b (V.Global "l");
      let t = B.spawn b "thief" (V.i64 0) in
      B.work b ~ns:200_000;
      B.mutex_unlock b (V.Global "l");
      B.join b t;
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some
      (Sim.Failure.Lock_misuse { misuse = Sim.Failure.Unlock_unowned; tid; _ })
    ->
    Alcotest.(check int) "thief thread blamed" 1 tid
  | _ -> Alcotest.fail "expected unlock-unowned misuse"

(* --- mutex unit behaviour ----------------------------------------------- *)

let test_mutex_fifo () =
  let mx = Sim.Mutexes.create () in
  Alcotest.(check bool) "t0 acquires" true
    (Sim.Mutexes.lock mx ~addr:100 ~tid:0 = Sim.Mutexes.Acquired);
  Alcotest.(check bool) "t1 blocks" true
    (Sim.Mutexes.lock mx ~addr:100 ~tid:1 = Sim.Mutexes.Blocked);
  Alcotest.(check bool) "t2 blocks" true
    (Sim.Mutexes.lock mx ~addr:100 ~tid:2 = Sim.Mutexes.Blocked);
  (match Sim.Mutexes.unlock mx ~addr:100 ~tid:0 with
  | Ok (Some next) -> Alcotest.(check int) "fifo handoff" 1 next
  | _ -> Alcotest.fail "expected handoff");
  Alcotest.(check (option int)) "owner is t1" (Some 1)
    (Sim.Mutexes.holder mx ~addr:100)

let test_mutex_wrong_owner () =
  let mx = Sim.Mutexes.create () in
  ignore (Sim.Mutexes.lock mx ~addr:5 ~tid:0);
  match Sim.Mutexes.unlock mx ~addr:5 ~tid:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* --- misc runtime ------------------------------------------------------- *)

let test_rand_deterministic () =
  let build () =
    expr_module (fun b -> B.rand b ~bound:1000)
  in
  let a = output (run ~seed:9 (build ())) in
  let b = output (run ~seed:9 (build ())) in
  Alcotest.(check (list int)) "same seed same value" a b

let test_time_advances () =
  let m = expr_module (fun b ->
      B.work b ~ns:1_000_000;
      V.i64 0)
  in
  let r = run m in
  Alcotest.(check bool) "about 1ms" true
    (r.Sim.Interp.final_time_ns > 900_000.0
    && r.Sim.Interp.final_time_ns < 1_200_000.0)

let test_fuel_exhaustion () =
  let m = Lir.Irmod.create "t" in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let l = B.fresh_label b "spin" in
      B.br b l;
      B.start_block b l;
      B.br b l);
  Lir.Verify.check_exn m;
  let config = { Sim.Interp.default_config with max_steps = 1000 } in
  match (Sim.Interp.run ~config m ~entry:"main").Sim.Interp.outcome with
  | Sim.Interp.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_control_events_fire () =
  let m = counter_module ~locked:true ~threads:2 ~iters:3 in
  let starts = ref 0 and branches = ref 0 and rets = ref 0 in
  let hooks =
    {
      Sim.Hooks.none with
      on_control =
        Some
          (fun ~time:_ e ->
            (match e with
            | Sim.Hooks.Thread_start _ -> incr starts
            | Sim.Hooks.Cond_branch _ -> incr branches
            | Sim.Hooks.Ret_branch _ -> incr rets
            | Sim.Hooks.Thread_exit _ -> ());
            0.0);
    }
  in
  ignore (run ~hooks m);
  Alcotest.(check int) "three thread starts" 3 !starts;
  Alcotest.(check bool) "branches observed" true (!branches > 0);
  Alcotest.(check bool) "returns observed" true (!rets > 0)

let test_instr_hook_cost_charged () =
  let build () = expr_module (fun _ -> V.i64 0) in
  let base = (run (build ())).Sim.Interp.final_time_ns in
  let hooks =
    { Sim.Hooks.none with
      on_instr = Some (fun ~tid:_ ~time:_ _ -> 100.0) }
  in
  let taxed = (run ~hooks (build ())).Sim.Interp.final_time_ns in
  Alcotest.(check bool) "cost added" true (taxed > base +. 150.0)

let test_hooks_combine () =
  let calls = ref 0 in
  let h () =
    { Sim.Hooks.none with
      on_control = Some (fun ~time:_ _ -> incr calls; 1.0) }
  in
  let combined = Sim.Hooks.combine (h ()) (h ()) in
  (match combined.Sim.Hooks.on_control with
  | Some f ->
    let cost = f ~time:0.0 (Sim.Hooks.Thread_exit { tid = 0 }) in
    Alcotest.(check (float 1e-9)) "costs add" 2.0 cost
  | None -> Alcotest.fail "combined lost on_control");
  Alcotest.(check int) "both fired" 2 !calls

(* --- condition variables ------------------------------------------------ *)

let condvar_module ~producer_signals =
  let m = Lir.Irmod.create "cv" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  ignore (Lir.Irmod.declare_struct m "Cond" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "nonempty" (T.Struct "Cond");
  Lir.Irmod.declare_global m "items" T.I64;
  Lir.Irmod.declare_global m "consumed" T.I64;
  B.define m "consumer" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.mutex_lock b (V.Global "lock");
      B.while_ b
        ~cond:(fun () ->
          let n = B.load b (V.Global "items") in
          B.icmp b Lir.Instr.Eq n (V.i64 0))
        ~body:(fun () ->
          B.cond_wait b ~cond:(V.Global "nonempty") ~mutex:(V.Global "lock"));
      let n = B.load b (V.Global "items") in
      B.store b ~value:(B.sub b n (V.i64 1)) ~ptr:(V.Global "items");
      B.store b ~value:(V.i64 1) ~ptr:(V.Global "consumed");
      B.mutex_unlock b (V.Global "lock");
      B.ret_void b);
  B.define m "producer" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.io_delay b ~ns:50_000;
      B.mutex_lock b (V.Global "lock");
      let n = B.load b (V.Global "items") in
      B.store b ~value:(B.add b n (V.i64 1)) ~ptr:(V.Global "items");
      (* BUG knob: forgetting to signal loses the wakeup. *)
      if producer_signals then B.cond_signal b (V.Global "nonempty");
      B.mutex_unlock b (V.Global "lock");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      B.call_void b Lir.Intrinsics.cond_init [ V.Global "nonempty" ];
      let c = B.spawn b "consumer" (V.i64 0) in
      let p = B.spawn b "producer" (V.i64 0) in
      B.join b p;
      B.join b c;
      let v = B.load b (V.Global "consumed") in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  m

let test_condvar_handoff () =
  let m = condvar_module ~producer_signals:true in
  let r = run m in
  Alcotest.(check bool) "completes" true (completed r);
  Alcotest.(check (list int)) "item consumed" [ 1 ] (output r)

let test_condvar_missed_signal_hangs () =
  let m = condvar_module ~producer_signals:false in
  match (run m).Sim.Interp.outcome with
  | Sim.Interp.Stuck -> ()
  | _ -> Alcotest.fail "expected a missed-wakeup hang"

let test_cond_wait_requires_mutex () =
  let m = Lir.Irmod.create "cv" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  ignore (Lir.Irmod.declare_struct m "Cond" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "cv" (T.Struct "Cond");
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.cond_wait b ~cond:(V.Global "cv") ~mutex:(V.Global "lock");
      B.ret_void b);
  Lir.Verify.check_exn m;
  match failure_of (run m) with
  | Some (Sim.Failure.Lock_misuse { misuse = Sim.Failure.Wait_unlocked; _ }) ->
    ()
  | _ -> Alcotest.fail "expected wait-unlocked misuse"

(* The bug this regression pins: a signalled waiter that blocks on the
   mutex re-acquisition used to be recorded as blocked at the SIGNALLER's
   instruction; a deadlock closing while it re-acquires then blamed the
   wrong call site.  The waiter must be attributed to its own cond_wait.

   Layout: t1 takes l2, then lock/cond_wait(cv, lock) — parking releases
   [lock] but keeps l2.  Main wakes it while holding [lock] (so the
   re-acquisition blocks), then tries l2: a real two-thread cycle closed
   by main, with t1 blocked at its cond_wait call. *)
let test_cond_reacquire_blames_wait_site () =
  let m = Lir.Irmod.create "cv" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  ignore (Lir.Irmod.declare_struct m "Cond" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "l2" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "cv" (T.Struct "Cond");
  B.define m "t1" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.mutex_lock b (V.Global "l2");
      B.mutex_lock b (V.Global "lock");
      B.cond_wait b ~cond:(V.Global "cv") ~mutex:(V.Global "lock");
      B.mutex_unlock b (V.Global "lock");
      B.mutex_unlock b (V.Global "l2");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "l2" ];
      B.call_void b Lir.Intrinsics.cond_init [ V.Global "cv" ];
      let t = B.spawn b "t1" (V.i64 0) in
      B.io_delay b ~ns:200_000;
      B.mutex_lock b (V.Global "lock");
      B.cond_signal b (V.Global "cv");
      B.mutex_lock b (V.Global "l2");
      B.mutex_unlock b (V.Global "l2");
      B.mutex_unlock b (V.Global "lock");
      B.join b t;
      B.ret_void b);
  Lir.Verify.check_exn m;
  (* t1's cond_wait call iid, straight from the built module. *)
  let wait_iid = ref (-1) in
  Lir.Irmod.iter_instrs m (fun f _ i ->
      match i.Lir.Instr.kind with
      | Lir.Instr.Call { callee; _ }
        when String.equal callee Lir.Intrinsics.cond_wait
             && String.equal f.Lir.Func.fname "t1" ->
        wait_iid := i.Lir.Instr.iid
      | _ -> ());
  match failure_of (run m) with
  | Some (Sim.Failure.Deadlock { waiters }) ->
    let t1_entry =
      List.find_opt (fun (tid, _, _) -> tid = 1) waiters
    in
    (match t1_entry with
    | Some (_, iid, _) ->
      Alcotest.(check int) "t1 blamed at its cond_wait" !wait_iid iid
    | None -> Alcotest.fail "t1 missing from deadlock waiters")
  | _ -> Alcotest.fail "expected a deadlock closed during re-acquisition"

let test_condvar_broadcast_wakes_all () =
  let m = Lir.Irmod.create "cv" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  ignore (Lir.Irmod.declare_struct m "Cond" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "go" (T.Struct "Cond");
  Lir.Irmod.declare_global m "released" T.I64;
  Lir.Irmod.declare_global m "ready" T.I64;
  B.define m "waiter" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.mutex_lock b (V.Global "lock");
      B.while_ b
        ~cond:(fun () ->
          let g = B.load b (V.Global "ready") in
          B.icmp b Lir.Instr.Eq g (V.i64 0))
        ~body:(fun () ->
          B.cond_wait b ~cond:(V.Global "go") ~mutex:(V.Global "lock"));
      let r = B.load b (V.Global "released") in
      B.store b ~value:(B.add b r (V.i64 1)) ~ptr:(V.Global "released");
      B.mutex_unlock b (V.Global "lock");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      B.call_void b Lir.Intrinsics.cond_init [ V.Global "go" ];
      let ws = List.init 3 (fun i -> B.spawn b "waiter" (V.i64 i)) in
      B.io_delay b ~ns:100_000;
      B.mutex_lock b (V.Global "lock");
      B.store b ~value:(V.i64 1) ~ptr:(V.Global "ready");
      B.cond_broadcast b (V.Global "go");
      B.mutex_unlock b (V.Global "lock");
      List.iter (fun t -> B.join b t) ws;
      let v = B.load b (V.Global "released") in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  let r = run m in
  Alcotest.(check bool) "completes" true (completed r);
  Alcotest.(check (list int)) "all three released" [ 3 ] (output r)

(* Random lock/unlock traffic against a reference model: owner and FIFO
   queue per address tracked independently. *)
let prop_mutex_model =
  QCheck.Test.make ~name:"mutexes agree with a reference model" ~count:200
    QCheck.(list (triple (int_range 0 3) (int_range 0 2) bool))
    (fun ops ->
      let mx = Sim.Mutexes.create () in
      (* model: addr -> (owner option, waiter queue); thread -> waiting? *)
      let model : (int, int option * int list) Hashtbl.t = Hashtbl.create 4 in
      let waiting : (int, unit) Hashtbl.t = Hashtbl.create 4 in
      let held : (int, int) Hashtbl.t = Hashtbl.create 4 in
      (* tid -> addr held *)
      let get addr =
        Option.value ~default:(None, []) (Hashtbl.find_opt model addr)
      in
      let ok = ref true in
      List.iter
        (fun (tid, addr, is_lock) ->
          if not (Hashtbl.mem waiting tid) then
            if is_lock && not (Hashtbl.mem held tid) then begin
              (* only lock when not already holding anything: keeps the
                 model deadlock-free *)
              match get addr with
              | None, q ->
                if Sim.Mutexes.lock mx ~addr ~tid <> Sim.Mutexes.Acquired then
                  ok := false;
                Hashtbl.replace model addr (Some tid, q);
                Hashtbl.replace held tid addr
              | Some owner, q when owner <> tid ->
                if Sim.Mutexes.lock mx ~addr ~tid <> Sim.Mutexes.Blocked then
                  ok := false;
                Hashtbl.replace model addr (Some owner, q @ [ tid ]);
                Hashtbl.replace waiting tid ()
              | Some _, _ -> ()
            end
            else if (not is_lock) && Hashtbl.find_opt held tid = Some addr then begin
              match get addr with
              | Some owner, q when owner = tid -> (
                Hashtbl.remove held tid;
                match Sim.Mutexes.unlock mx ~addr ~tid, q with
                | Ok None, [] -> Hashtbl.replace model addr (None, [])
                | Ok (Some next), expected :: rest ->
                  if next <> expected then ok := false;
                  Hashtbl.remove waiting next;
                  Hashtbl.replace held next addr;
                  Hashtbl.replace model addr (Some next, rest)
                | _, _ -> ok := false)
              | _ -> ()
            end)
        ops;
      !ok)

(* --- per-step allocation floor ------------------------------------------ *)

(* Minor words per simulated step over fixed seeds of one corpus bug, in
   the three ways the fix loop runs it: untraced, traced with the
   watchpoint armed (a collection run), and HB-observed (a judge run).
   Each figure includes the run's own set-up, so the bounds catch a
   per-run table as well as a per-step allocation.  Allocation is
   deterministic, so the bounds are tight: a boxed clock or PRNG state,
   a per-step closure or a Map-based vector clock each overshoot them
   several times, and the traced and HB bounds sit below what the
   tracer's staging buffers and a boxed access event cost. *)
let test_words_per_step () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  match Corpus.Runner.collect bug ~success_per_failing:1 () with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    let built = c.Corpus.Runner.built and entry = bug.Corpus.Bug.entry in
    let watch_pcs =
      Corpus.Runner.watch_pcs_for built.Corpus.Bug.m
        (List.hd c.Corpus.Runner.failing)
    in
    let per_step run =
      let words = ref 0.0 and steps = ref 0 in
      for seed = 1 to 50 do
        let before = Gc.minor_words () in
        let (r : Sim.Interp.run_result) = run seed in
        words := !words +. (Gc.minor_words () -. before);
        steps := !steps + r.Sim.Interp.steps
      done;
      !words /. float_of_int !steps
    in
    let untraced =
      per_step (fun seed -> Corpus.Runner.run_untraced ~built ~entry ~seed ())
    in
    let traced =
      per_step (fun seed ->
          (Corpus.Runner.run_traced ~built ~entry ~seed ~watch_pcs ())
            .Corpus.Runner.result)
    in
    let hb =
      per_step (fun seed ->
          let hooks = Oracle.Observe.hooks (Analysis.Hb.create ()) in
          Sim.Interp.run
            ~config:{ Sim.Interp.default_config with seed; hooks }
            built.Corpus.Bug.m ~entry)
    in
    let within name bound v =
      if v > bound then
        Alcotest.failf "%s: %.2f words/step, bound %.1f" name v bound
    in
    (* Measured 1.18 / 5.24 / 9.88 on 64-bit OCaml 5.1; 1.18 / 6.86 /
       13.69 while the tracer staged packets in side buffers and every
       access reached the observers as a boxed event. *)
    within "untraced" 2.0 untraced;
    within "traced" 6.5 traced;
    within "HB-observed" 12.0 hb

let tests =
  [
    ( "sim.semantics",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "comparisons" `Quick test_icmp;
        Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
        Alcotest.test_case "struct fields" `Quick test_gep_fields_distinct;
        Alcotest.test_case "array indexing" `Quick test_array_indexing;
        Alcotest.test_case "call/return" `Quick test_call_and_return;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
      ] );
    ( "sim.faults",
      [
        Alcotest.test_case "null deref" `Quick test_null_deref;
        Alcotest.test_case "use after free" `Quick test_use_after_free;
        Alcotest.test_case "assert failure" `Quick test_assert_failure;
        Alcotest.test_case "double free" `Quick test_double_free_faults;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_structured;
        Alcotest.test_case "rem by zero" `Quick test_rem_by_zero_structured;
        Alcotest.test_case "undef read" `Quick test_undef_read_structured;
        Alcotest.test_case "undef read in a fresh frame" `Quick
          test_undef_read_fresh_frame;
        Alcotest.test_case "malformed fails only when executed" `Quick
          test_malformed_fails_only_when_executed;
        Alcotest.test_case "image follows rewrites" `Quick
          test_image_follows_rewrites;
        Alcotest.test_case "create not function" `Quick
          test_create_not_function_structured;
        Alcotest.test_case "join unknown" `Quick test_join_unknown_structured;
      ] );
    ( "sim.threads",
      [
        Alcotest.test_case "locked counter exact" `Quick test_locked_counter_exact;
        Alcotest.test_case "unlocked counter races" `Quick
          test_unlocked_counter_races;
        Alcotest.test_case "join waits" `Quick test_join_waits;
        Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
        Alcotest.test_case "no false deadlock" `Quick test_no_deadlock_when_disjoint;
        Alcotest.test_case "three-way deadlock" `Quick test_three_way_deadlock;
        Alcotest.test_case "self deadlock" `Quick test_self_deadlock;
        Alcotest.test_case "unlock unheld" `Quick test_unlock_unheld_is_program_error;
        Alcotest.test_case "double unlock" `Quick
          test_double_unlock_is_program_error;
        Alcotest.test_case "unlock by non-owner" `Quick
          test_unlock_by_non_owner_is_program_error;
      ] );
    ( "sim.mutexes",
      [
        Alcotest.test_case "fifo handoff" `Quick test_mutex_fifo;
        Alcotest.test_case "wrong owner" `Quick test_mutex_wrong_owner;
        QCheck_alcotest.to_alcotest prop_mutex_model;
      ] );
    ( "sim.condvars",
      [
        Alcotest.test_case "wait/signal handoff" `Quick test_condvar_handoff;
        Alcotest.test_case "missed signal hangs" `Quick
          test_condvar_missed_signal_hangs;
        Alcotest.test_case "wait requires mutex" `Quick test_cond_wait_requires_mutex;
        Alcotest.test_case "re-acquire blames wait site" `Quick
          test_cond_reacquire_blames_wait_site;
        Alcotest.test_case "broadcast wakes all" `Quick
          test_condvar_broadcast_wakes_all;
      ] );
    ( "sim.runtime",
      [
        Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
        Alcotest.test_case "time advances" `Quick test_time_advances;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "control events" `Quick test_control_events_fire;
        Alcotest.test_case "instr hook cost" `Quick test_instr_hook_cost_charged;
        Alcotest.test_case "hooks combine" `Quick test_hooks_combine;
        Alcotest.test_case "words per step" `Quick test_words_per_step;
      ] );
  ]
