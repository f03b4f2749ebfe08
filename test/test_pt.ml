(* Tests for the PT model: packet codec, PSB scanning, the tracer, and —
   most importantly — decoder fidelity: the decoded instruction sequence
   and its coarse time intervals must agree with what the interpreter
   actually executed. *)

module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty
module Packet = Pt.Packet

(* --- packet codec ------------------------------------------------------- *)

(* Decoder steps are a flat array since the perf overhaul; tests keep
   list-shaped assertions through this view. *)
let steps_list (d : Pt.Decoder.result) = Array.to_list d.Pt.Decoder.steps

let arbitrary_packet =
  QCheck.Gen.(
    oneof
      [
        map (fun tsc -> Packet.Psb { tsc }) (int_range 0 1_000_000_000);
        map (fun pc -> Packet.Fup { pc }) (int_range 0 1_000_000);
        map (fun pc -> Packet.Tip { pc }) (int_range 0 1_000_000);
        return Packet.Tip_end;
        map (fun b -> Packet.Tnt b) bool;
        map2
          (fun count bits ->
            (* Canonical form: bits above [count] are already masked. *)
            Packet.Tnt_packed { bits = bits land ((1 lsl count) - 1); count })
          (int_range 1 Packet.tnt_max_bits)
          (int_range 0 ((1 lsl 30) - 1));
        map (fun ctc -> Packet.Mtc { ctc = ctc land 0xff }) (int_range 0 255);
        map (fun tsc -> Packet.Tma { tsc }) (int_range 0 1_000_000_000);
        map (fun delta -> Packet.Cyc { delta }) (int_range 0 100_000);
      ])

(* Read a stream through the cursor as packet values.  The cursor
   reports a per-bit TNT and a packed run alike, as a run of bits, so
   runs come back expanded to per-bit [Tnt]; [expand_tnt] brings an
   encoder input list to the same form. *)
let cursor_packets ?(pos = 0) bytes =
  let c = Packet.Cursor.make bytes ~pos in
  let rec collect acc =
    Packet.Cursor.advance c;
    let v = c.Packet.Cursor.value in
    match c.Packet.Cursor.kind with
    | Packet.Cursor.Eof -> List.rev acc
    | Packet.Cursor.Psb -> collect (Packet.Psb { tsc = v } :: acc)
    | Packet.Cursor.Fup -> collect (Packet.Fup { pc = v } :: acc)
    | Packet.Cursor.Tip -> collect (Packet.Tip { pc = v } :: acc)
    | Packet.Cursor.Tip_end -> collect (Packet.Tip_end :: acc)
    | Packet.Cursor.Tnt ->
      let run =
        List.init c.Packet.Cursor.count (fun j -> Packet.Tnt ((v lsr j) land 1 = 1))
      in
      collect (List.rev_append run acc)
    | Packet.Cursor.Mtc -> collect (Packet.Mtc { ctc = v } :: acc)
    | Packet.Cursor.Tma -> collect (Packet.Tma { tsc = v } :: acc)
    | Packet.Cursor.Cyc -> collect (Packet.Cyc { delta = v } :: acc)
  in
  collect []

let expand_tnt packets =
  List.concat_map
    (function
      | Packet.Tnt_packed { bits; count } ->
        List.init count (fun j -> Packet.Tnt ((bits lsr j) land 1 = 1))
      | p -> [ p ])
    packets

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet stream round-trips" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) arbitrary_packet))
    (fun packets ->
      let packets = Packet.Psb { tsc = 0 } :: packets in
      let buf = Buffer.create 256 in
      List.iter (Packet.encode buf) packets;
      cursor_packets (Buffer.to_bytes buf) = expand_tnt packets)

let prop_cursor_agrees_from_every_psb =
  (* A wrapped ring is read from a PSB in mid-stream, not from byte 0: a
     cursor started at any PSB boundary must read exactly the packets the
     encoder wrote from that PSB on, i.e. the matching suffix of the
     whole-stream read. *)
  QCheck.Test.make ~name:"Cursor agrees with decode from every PSB" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) arbitrary_packet))
    (fun packets ->
      let packets = Packet.Psb { tsc = 0 } :: packets in
      let buf = Buffer.create 256 in
      let starts =
        List.fold_left
          (fun (starts, rest) p ->
            let starts =
              match p with
              | Packet.Psb _ -> (Buffer.length buf, rest) :: starts
              | _ -> starts
            in
            Packet.encode buf p;
            (starts, List.tl rest))
          ([], packets) packets
        |> fst
      in
      let bytes = Buffer.to_bytes buf in
      List.for_all
        (fun (pos, from_psb) ->
          Packet.scan_psb bytes ~pos = Some pos
          && cursor_packets ~pos bytes = expand_tnt from_psb)
        starts)

let prop_psb_unique =
  QCheck.Test.make
    ~name:"scan_psb never fires inside non-PSB packet bytes" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) arbitrary_packet))
    (fun packets ->
      (* Remove PSBs, then scanning must find nothing. *)
      let without =
        List.filter (function Packet.Psb _ -> false | _ -> true) packets
      in
      let buf = Buffer.create 256 in
      List.iter (Packet.encode buf) without;
      Packet.scan_psb (Buffer.to_bytes buf) ~pos:0 = None)

let prop_packed_tnt_equals_per_bit =
  (* The packed multi-bit TNT is pure wire compression: encoding a branch
     run as one Tnt_packed and reading it back must yield exactly the
     per-bit v1 run, first branch first. *)
  QCheck.Test.make ~name:"packed TNT encode/decode equals per-bit v1"
    ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 1 Packet.tnt_max_bits) bool))
    (fun branches ->
      let count = List.length branches in
      let bits =
        List.fold_left
          (fun (acc, j) b -> ((if b then acc lor (1 lsl j) else acc), j + 1))
          (0, 0) branches
        |> fst
      in
      let buf = Buffer.create 16 in
      Packet.encode buf (Packet.Psb { tsc = 0 });
      Packet.encode buf (Packet.Tnt_packed { bits; count });
      cursor_packets (Buffer.to_bytes buf)
      = Packet.Psb { tsc = 0 } :: List.map (fun b -> Packet.Tnt b) branches)

let test_psb_found_after_garbage () =
  let buf = Buffer.create 64 in
  Packet.encode buf (Packet.Tnt true);
  Packet.encode buf (Packet.Cyc { delta = 12345 });
  let garbage_len = Buffer.length buf in
  Packet.encode buf (Packet.Psb { tsc = 77 });
  (match Packet.scan_psb (Buffer.to_bytes buf) ~pos:0 with
  | Some pos -> Alcotest.(check int) "skips to PSB" garbage_len pos
  | None -> Alcotest.fail "PSB not found")

let test_truncated_packet_dropped () =
  let buf = Buffer.create 16 in
  Packet.encode buf (Packet.Psb { tsc = 1 });
  Packet.encode buf (Packet.Tip { pc = 0x12345 });
  let whole = Buffer.to_bytes buf in
  let cut = Bytes.sub whole 0 (Bytes.length whole - 1) in
  Alcotest.(check bool) "only the PSB survives" true
    (cursor_packets cut = [ Packet.Psb { tsc = 1 } ])

(* --- tracer + decoder fidelity ------------------------------------------ *)

(* A program with branches, calls, loops and several threads. *)
let fixture_module () =
  let m = Lir.Irmod.create "fixture" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "shared" T.I64;
  B.define m "bump" ~params:[ ("by", T.I64) ] ~ret:T.I64 (fun b ->
      B.mutex_lock b (V.Global "lock");
      let v = B.load b (V.Global "shared") in
      let v' = B.add b v (B.param b 0) in
      B.store b ~value:v' ~ptr:(V.Global "shared");
      B.mutex_unlock b (V.Global "lock");
      B.ret b v');
  B.define m "worker" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.for_ b ~from:0 ~below:(V.i64 12) (fun i ->
          B.work b ~ns:2_000;
          let odd = B.icmp b Lir.Instr.Eq (B.binop b Lir.Instr.And i (V.i64 1)) (V.i64 1) in
          B.if_ b odd
            ~then_:(fun () -> ignore (B.call b ~ret:T.I64 "bump" [ V.i64 2 ]))
            ~else_:(fun () -> ignore (B.call b ~ret:T.I64 "bump" [ V.i64 1 ])));
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      let t1 = B.spawn b "worker" (V.i64 0) in
      let t2 = B.spawn b "worker" (V.i64 1) in
      B.join b t1;
      B.join b t2;
      B.ret_void b);
  Lir.Verify.check_exn m;
  Lir.Irmod.layout m;
  m

(* Run with tracing AND an oracle hook recording what really executed. *)
let run_with_oracle ?(config = Pt.Config.default) ?(seed = 1) m =
  let driver = Pt.Driver.create ~config () in
  let actual : (int, (int * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let oracle ~tid ~time (i : Lir.Instr.t) =
    let l =
      match Hashtbl.find_opt actual tid with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add actual tid l;
        l
    in
    l := (i.Lir.Instr.iid, time) :: !l;
    0.0
  in
  let hooks =
    Sim.Hooks.combine (Pt.Driver.hooks driver)
      { Sim.Hooks.none with on_instr = Some oracle }
  in
  let cfg = { Sim.Interp.default_config with seed; hooks } in
  let result = Sim.Interp.run ~config:cfg m ~entry:"main" in
  let actual =
    Hashtbl.fold (fun tid l acc -> (tid, List.rev !l) :: acc) actual []
  in
  (result, driver, List.sort compare actual)

let test_decoder_matches_execution () =
  let m = fixture_module () in
  let result, driver, actual = run_with_oracle m in
  Alcotest.(check bool) "completed" true
    (result.Sim.Interp.outcome = Sim.Interp.Completed);
  let snap =
    Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
  in
  List.iter
    (fun (tid, bytes) ->
      let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
      Alcotest.(check bool)
        (Printf.sprintf "tid %d decodes clean" tid)
        false d.Pt.Decoder.desynced;
      let decoded_iids = List.map (fun s -> s.Pt.Decoder.iid) (steps_list d) in
      let actual_list = List.assoc tid actual in
      (* The trace ends at the last control event, so the decoded sequence
         must be a prefix of the actual instruction sequence. *)
      let actual_iids = List.map fst actual_list in
      let rec is_prefix a b =
        match a, b with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "tid %d decoded sequence is an execution prefix" tid)
        true
        (is_prefix decoded_iids actual_iids);
      (* Coverage: everything up to the final straight-line tail decodes. *)
      Alcotest.(check bool)
        (Printf.sprintf "tid %d decodes most of the execution" tid)
        true
        (List.length decoded_iids >= List.length actual_iids - 30))
    snap.Pt.Driver.traces

let test_decoder_time_bounds_contain_truth () =
  let m = fixture_module () in
  let result, driver, actual = run_with_oracle m in
  let snap =
    Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
  in
  List.iter
    (fun (tid, bytes) ->
      let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
      let actual_list = List.assoc tid actual in
      List.iteri
        (fun k (s : Pt.Decoder.step) ->
          let _, t_actual = List.nth actual_list k in
          Alcotest.(check bool)
            (Printf.sprintf "tid %d step %d lower bound" tid k)
            true
            (float_of_int s.Pt.Decoder.t_lo <= t_actual +. 1.0);
          Alcotest.(check bool)
            (Printf.sprintf "tid %d step %d upper bound" tid k)
            true
            (match s.Pt.Decoder.t_hi with
            | None -> true
            | Some hi -> t_actual <= float_of_int hi +. 1.0))
        (steps_list d))
    snap.Pt.Driver.traces

let test_ring_wrap_resync () =
  (* A tiny buffer forces wrap-around; the decoder must resync at a PSB
     and still produce a valid suffix of the execution. *)
  let m = fixture_module () in
  let config =
    { Pt.Config.default with Pt.Config.buffer_size = 256; psb_period_bytes = 64 }
  in
  let result, driver, actual = run_with_oracle ~config m in
  let snap =
    Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
  in
  let checked = ref 0 in
  List.iter
    (fun (tid, bytes) ->
      let d = Pt.Decoder.decode m ~config bytes in
      (* A full buffer whose first packet is not a PSB has wrapped. *)
      if Bytes.length bytes = 256 then begin
        incr checked;
        Alcotest.(check bool) "no desync" false d.Pt.Decoder.desynced;
        (* The decoded iids must appear as a contiguous subsequence at the
           END of the actual execution (minus the untraced tail). *)
        let decoded = List.map (fun s -> s.Pt.Decoder.iid) (steps_list d) in
        let actual_iids = List.map fst (List.assoc tid actual) in
        let is_sub a b =
          (* a appears contiguously in b *)
          let la = List.length a and lb = List.length b in
          if la > lb then false
          else
            let rec take n = function
              | [] -> []
              | x :: r -> if n = 0 then [] else x :: take (n - 1) r
            in
            let rec drop n l =
              if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r
            in
            let rec go i =
              i + la <= lb && (take la (drop i b) = a || go (i + 1))
            in
            go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "tid %d decoded suffix is contiguous subsequence" tid)
          true (is_sub decoded actual_iids)
      end)
    snap.Pt.Driver.traces;
  Alcotest.(check bool) "at least one buffer wrapped" true (!checked > 0)

let test_tail_stop_reaches_failing_pc () =
  (* Crash mid-block: the tail walk must reach the failing instruction. *)
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Box" [ T.I64 ]);
  Lir.Irmod.declare_global m "box" (T.Ptr (T.Struct "Box"));
  let crash_iid = ref (-1) in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.work b ~ns:1000;
      let p = B.load b (V.Global "box") in
      let f = B.gep b p 0 in
      let v = B.load b f in
      crash_iid := B.last_iid b;
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  Lir.Irmod.layout m;
  let driver = Pt.Driver.create () in
  let config =
    { Sim.Interp.default_config with hooks = Pt.Driver.hooks driver }
  in
  let result = Sim.Interp.run ~config m ~entry:"main" in
  (match result.Sim.Interp.outcome with
  | Sim.Interp.Failed { failure; time_ns } ->
    let snap = Pt.Driver.snapshot_now driver ~at_time_ns:time_ns in
    let bytes = List.assoc 0 snap.Pt.Driver.traces in
    let pc = (Lir.Irmod.instr_by_iid m !crash_iid).Lir.Instr.pc in
    let d =
      Pt.Decoder.decode m ~config:Pt.Config.default
        ~tail_stop:(pc, int_of_float time_ns)
        bytes
    in
    let iids = List.map (fun s -> s.Pt.Decoder.iid) (steps_list d) in
    Alcotest.(check bool) "failing instr decoded" true (List.mem !crash_iid iids);
    Alcotest.(check int) "it is the crash" (Sim.Failure.failing_iid failure)
      !crash_iid
  | _ -> Alcotest.fail "expected crash")

let test_timing_modes_degrade_gracefully () =
  let m = fixture_module () in
  let run_mode timing =
    let config = { Pt.Config.default with Pt.Config.timing } in
    let result, driver, _ = run_with_oracle ~config m in
    let snap =
      Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
    in
    let bytes = List.assoc 1 snap.Pt.Driver.traces in
    Pt.Decoder.decode m ~config bytes
  in
  let fine = run_mode (Pt.Config.Cyc_and_mtc { mtc_period_ns = 1024 }) in
  let coarse = run_mode (Pt.Config.Mtc_only { mtc_period_ns = 4096 }) in
  let width d =
    List.fold_left
      (fun acc (s : Pt.Decoder.step) ->
        let hi =
          match s.Pt.Decoder.t_hi with
          | Some hi -> min hi 1_000_000_000
          | None -> 1_000_000_000
        in
        acc + (hi - s.Pt.Decoder.t_lo))
      0 (steps_list d)
    / max 1 (List.length (steps_list d))
  in
  Alcotest.(check bool) "coarse timing widens intervals" true
    (width coarse >= width fine);
  Alcotest.(check bool) "both decode the same instructions" true
    (List.map (fun s -> s.Pt.Decoder.iid) (steps_list fine)
    = List.map (fun s -> s.Pt.Decoder.iid) (steps_list coarse))

let test_open_window_is_explicit () =
  (* A trace whose last packets carry no timing (coarse Mtc_only mode, so
     events after the final MTC have no later clock reading): the decoder
     must represent the open upper bound explicitly instead of leaking a
     max_int sentinel into window arithmetic downstream. *)
  let m = fixture_module () in
  let config =
    {
      Pt.Config.default with
      Pt.Config.timing = Pt.Config.Mtc_only { mtc_period_ns = 4096 };
    }
  in
  let result, driver, _ = run_with_oracle ~config m in
  let snap =
    Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
  in
  let open_seen = ref false in
  let steps = ref 0 in
  List.iter
    (fun (_tid, bytes) ->
      let d = Pt.Decoder.decode m ~config bytes in
      List.iter
        (fun (s : Pt.Decoder.step) ->
          incr steps;
          match s.Pt.Decoder.t_hi with
          | None -> open_seen := true
          | Some hi ->
            (* Closed windows are well-formed: hi - lo never overflows
               and is non-negative. *)
            Alcotest.(check bool) "window non-negative" true
              (hi - s.Pt.Decoder.t_lo >= 0 && hi < max_int / 2))
        (steps_list d))
    snap.Pt.Driver.traces;
  Alcotest.(check bool) "decoded something" true (!steps > 0);
  Alcotest.(check bool) "the untimed tail has an explicitly open bound" true
    !open_seen

let test_tracer_stats () =
  let m = fixture_module () in
  let result, driver, _ = run_with_oracle m in
  ignore result;
  let tr = Pt.Driver.tracer driver in
  Alcotest.(check bool) "events seen" true (Pt.Tracer.events_seen tr > 50);
  Alcotest.(check bool) "bytes written" true (Pt.Tracer.bytes_written tr > 100);
  Alcotest.(check int) "three buffers" 3 (Pt.Tracer.thread_count tr);
  Alcotest.(check bool) "timing packets flow" true
    (Pt.Tracer.timing_packets tr > 10)

let test_watchpoint_fires () =
  let m = fixture_module () in
  Lir.Irmod.layout m;
  (* Watch the first instruction of bump. *)
  let pc = Lir.Irmod.block_start_pc m ~fname:"bump" ~label:"entry" in
  let driver = Pt.Driver.create () in
  Pt.Driver.set_watchpoints driver ~pcs:[ pc ];
  let config =
    { Sim.Interp.default_config with hooks = Pt.Driver.hooks driver }
  in
  ignore (Sim.Interp.run ~config m ~entry:"main");
  match Pt.Driver.watch_snapshot driver with
  | Some snap ->
    Alcotest.(check (option int)) "trigger pc" (Some pc) snap.Pt.Driver.trigger_pc;
    Alcotest.(check bool) "has traces" true (snap.Pt.Driver.traces <> [])
  | None -> Alcotest.fail "watchpoint did not fire"

(* --- native watchpoint vs a per-instruction reference --------------------- *)

(* The watchpoint semantics as a per-instruction [on_instr] observer over
   a driver's tracer: the primary (head) pc wins over the fallbacks, and
   a later hit replaces an earlier one.  The native watchpoint must pick
   the same hit and snapshot the same bytes. *)
let reference_watch tracer pcs =
  let hit = ref None and primary_hit = ref false in
  let on_instr ~tid ~time (i : Lir.Instr.t) =
    (match pcs with
    | [] -> ()
    | primary :: fallbacks ->
      let pc = i.Lir.Instr.pc in
      let snap () = Some (Pt.Tracer.snapshot tracer, time, pc, tid) in
      if pc = primary then begin
        hit := snap ();
        primary_hit := true
      end
      else if (not !primary_hit) && List.mem pc fallbacks then hit := snap ());
    0.0
  in
  ({ Sim.Hooks.none with on_instr = Some on_instr }, hit)

(* One run with the driver's native watchpoint (plus [extra] hooks) and
   one with the reference observer; everything the snapshot carries must
   agree.  Returns the native snapshot. *)
let check_watch_against_reference ?(extra = Sim.Hooks.none) m ~entry ~seed pcs =
  let native = Pt.Driver.create () in
  Pt.Driver.set_watchpoints native ~pcs;
  let run hooks =
    Sim.Interp.run ~config:{ Sim.Interp.default_config with seed; hooks } m
      ~entry
  in
  let r1 = run (Sim.Hooks.combine (Pt.Driver.hooks native) extra) in
  let plain = Pt.Driver.create () in
  let ref_hooks, ref_hit = reference_watch (Pt.Driver.tracer plain) pcs in
  let r2 = run (Sim.Hooks.combine (Pt.Driver.hooks plain) ref_hooks) in
  let what = Printf.sprintf "seed %d" seed in
  Alcotest.(check int64) (what ^ " same run")
    (Int64.bits_of_float r2.Sim.Interp.final_time_ns)
    (Int64.bits_of_float r1.Sim.Interp.final_time_ns);
  let snap = Pt.Driver.watch_snapshot native in
  (match snap, !ref_hit with
  | None, None -> ()
  | Some s, Some (traces, time, pc, tid) ->
    Alcotest.(check (option int)) (what ^ " trigger pc") (Some pc)
      s.Pt.Driver.trigger_pc;
    Alcotest.(check (option int)) (what ^ " trigger tid") (Some tid)
      s.Pt.Driver.trigger_tid;
    Alcotest.(check int64) (what ^ " time") (Int64.bits_of_float time)
      (Int64.bits_of_float s.Pt.Driver.at_time_ns);
    Alcotest.(check (list (pair int string))) (what ^ " ring bytes")
      (List.map (fun (tid, b) -> (tid, Bytes.to_string b)) traces)
      (List.map (fun (tid, b) -> (tid, Bytes.to_string b)) s.Pt.Driver.traces)
  | Some _, None -> Alcotest.fail (what ^ ": only the native watchpoint fired")
  | None, Some _ -> Alcotest.fail (what ^ ": only the reference fired"));
  snap

let test_watchpoint_matches_reference_on_corpus () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  match Corpus.Runner.collect bug ~success_per_failing:1 () with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    let m = c.Corpus.Runner.built.Corpus.Bug.m in
    let pcs = Corpus.Runner.watch_pcs_for m (List.hd c.Corpus.Runner.failing) in
    let fired = ref 0 in
    for seed = 1 to 30 do
      let entry = bug.Corpus.Bug.entry in
      match check_watch_against_reference m ~entry ~seed pcs with
      | Some _ -> incr fired
      | None -> ()
    done;
    Alcotest.(check bool) "the watchpoint fires on some seeds" true (!fired > 0)

(* Every execution of [pcs] in a traced run of [m], as (tid, time, pc)
   in order. *)
let executions m ~seed pcs =
  let seen = ref [] in
  let on_instr ~tid ~time (i : Lir.Instr.t) =
    let pc = i.Lir.Instr.pc in
    if List.mem pc pcs then seen := (tid, time, pc) :: !seen;
    0.0
  in
  let hooks =
    Sim.Hooks.combine
      (Pt.Driver.hooks (Pt.Driver.create ()))
      { Sim.Hooks.none with on_instr = Some on_instr }
  in
  ignore
    (Sim.Interp.run ~config:{ Sim.Interp.default_config with seed; hooks } m
       ~entry:"main");
  List.rev !seen

let test_watchpoint_primary_and_replacement () =
  let m = fixture_module () in
  let bump = Lir.Irmod.block_start_pc m ~fname:"bump" ~label:"entry" in
  let main = Lir.Irmod.block_start_pc m ~fname:"main" ~label:"entry" in
  let last_of pc =
    List.fold_left
      (fun acc (tid, time, p) -> if p = pc then Some (tid, time) else acc)
      None (executions m ~seed:1 [ pc ])
  in
  let trigger snap =
    match snap with
    | Some s ->
      (s.Pt.Driver.trigger_pc, s.Pt.Driver.trigger_tid, s.Pt.Driver.at_time_ns)
    | None -> Alcotest.fail "watchpoint did not fire"
  in
  (* The primary runs once, early; the fallback runs 24 times after it:
     the primary's hit stands. *)
  let pc, tid, time =
    trigger
      (check_watch_against_reference m ~entry:"main" ~seed:1 [ main; bump ])
  in
  Alcotest.(check (option int)) "primary beats a later fallback" (Some main) pc;
  let main_tid, main_time = Option.get (last_of main) in
  Alcotest.(check (option int)) "primary tid" (Some main_tid) tid;
  Alcotest.(check (float 0.0)) "primary time" main_time time;
  (* A primary that never runs (pc 0 is no instruction): the last of the
     fallback's hits stands. *)
  let pc, tid, time =
    trigger (check_watch_against_reference m ~entry:"main" ~seed:1 [ 0; bump ])
  in
  Alcotest.(check (option int)) "fallback fires" (Some bump) pc;
  let bump_tid, bump_time = Option.get (last_of bump) in
  Alcotest.(check (option int)) "last fallback hit's tid" (Some bump_tid) tid;
  Alcotest.(check (float 0.0)) "last fallback hit's time" bump_time time

(* A second watch combined with the driver's: each sees every execution
   of its own pcs (one pc is watched by both), and the driver's snapshot
   is the one it takes alone. *)
let test_watchpoint_combine () =
  let m = fixture_module () in
  let bump = Lir.Irmod.block_start_pc m ~fname:"bump" ~label:"entry" in
  let worker = Lir.Irmod.block_start_pc m ~fname:"worker" ~label:"entry" in
  let main = Lir.Irmod.block_start_pc m ~fname:"main" ~label:"entry" in
  let seen = ref [] in
  let extra =
    {
      Sim.Hooks.none with
      watch =
        [
          {
            Sim.Hooks.pcs = [| worker; bump |];
            on_hit = (fun ~tid ~time ~pc -> seen := (tid, time, pc) :: !seen);
          };
        ];
    }
  in
  ignore
    (check_watch_against_reference ~extra m ~entry:"main" ~seed:3
       [ bump; main ]);
  let expected = executions m ~seed:3 [ worker; bump ] in
  Alcotest.(check int) "every hit of the second watch" (List.length expected)
    (List.length !seen);
  Alcotest.(check bool) "same hits, in order" true (List.rev !seen = expected)

let test_decoder_empty_and_garbage () =
  let m = fixture_module () in
  let d = Pt.Decoder.decode m ~config:Pt.Config.default Bytes.empty in
  Alcotest.(check int) "empty snapshot, no steps" 0 (List.length (steps_list d));
  (* Garbage without a PSB: everything counted as lost, nothing decoded. *)
  let garbage = Bytes.make 64 '\x07' in
  let d = Pt.Decoder.decode m ~config:Pt.Config.default garbage in
  Alcotest.(check int) "garbage, no steps" 0 (List.length (steps_list d));
  Alcotest.(check int) "all bytes lost" 64 d.Pt.Decoder.lost_bytes

(* One random ring corruption: overwrite a span with garbage, flip a
   bit, maybe cut.  Returns a fresh copy; [ring] is untouched. *)
let corrupt_ring prng ring =
  let ring = Bytes.copy ring in
  let len = Bytes.length ring in
  if len = 0 then ring
  else begin
    let start = Snorlax_util.Prng.int prng ~bound:len in
    let span = 1 + Snorlax_util.Prng.int prng ~bound:(min 24 (len - start)) in
    for i = start to start + span - 1 do
      Bytes.set ring i (Char.chr (Snorlax_util.Prng.int prng ~bound:256))
    done;
    let p = Snorlax_util.Prng.int prng ~bound:len in
    let bit = Snorlax_util.Prng.int prng ~bound:8 in
    Bytes.set ring p (Char.chr (Char.code (Bytes.get ring p) lxor (1 lsl bit)));
    if Snorlax_util.Prng.bool prng then
      Bytes.sub ring 0 (Snorlax_util.Prng.int prng ~bound:len)
    else ring
  end

let prop_decoder_total_on_corrupt_rings =
  (* Found by the chaos harness: a corrupted ring snapshot used to escape
     the decoder as Invalid_argument ("Packet.decode: bad header ...") or
     as Not_found when a damaged TIP packet carried a pc that maps to no
     instruction.  Ring bytes are untrusted in-production input: the
     decoder must decode what it can, resync or flag desync — never
     raise. *)
  let m = fixture_module () in
  let result, driver, _ = run_with_oracle m in
  let traces =
    (Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns)
      .Pt.Driver.traces
  in
  let iid_at = Hashtbl.create 64 in
  Lir.Irmod.iter_instrs m (fun _ _ i ->
      Hashtbl.replace iid_at i.Lir.Instr.pc i.Lir.Instr.iid);
  QCheck.Test.make
    ~name:"decoder is total and matches the module's iids on corrupted rings"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Snorlax_util.Prng.create ~seed in
      List.for_all
        (fun (_tid, ring) ->
          let ring = corrupt_ring prng ring in
          (* Totality, and no step invented from garbage: whatever the
             walk emits names the instruction the module has at that
             step's pc. *)
          match Pt.Decoder.decode m ~config:Pt.Config.default ring with
          | d ->
            Array.for_all
              (fun (s : Pt.Decoder.step) ->
                Hashtbl.find_opt iid_at s.Pt.Decoder.pc = Some s.Pt.Decoder.iid)
              d.Pt.Decoder.steps
          | exception _ -> false)
        traces)

let test_thread_ended_surfaced () =
  (* The decoder used to consume TIP.END and then throw the fact away;
     [thread_ended] now distinguishes a trace that is complete (the
     thread's entry function returned) from one cut by the ring. *)
  let m = fixture_module () in
  let result, driver, _ = run_with_oracle m in
  let traces =
    (Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns)
      .Pt.Driver.traces
  in
  let config = Pt.Config.default in
  let ended =
    List.filter
      (fun (_, ring) -> (Pt.Decoder.decode m ~config ring).Pt.Decoder.thread_ended)
      traces
  in
  Alcotest.(check bool)
    "a run to completion decodes ended threads" true
    (List.length ended > 0);
  (* Cutting the ring's final byte removes the TIP.END: same trace, but
     no longer a completed thread. *)
  let _, ring = List.hd ended in
  let cut = Bytes.sub ring 0 (Bytes.length ring - 1) in
  let d = Pt.Decoder.decode m ~config cut in
  Alcotest.(check bool) "truncated trace is not ended" false
    d.Pt.Decoder.thread_ended

let test_decoder_mismatched_stream_desyncs () =
  let m = fixture_module () in
  Lir.Irmod.layout m;
  (* A syntactically valid stream whose control packets cannot match the
     program: sync at main's entry then claim a conditional branch. *)
  let buf = Buffer.create 32 in
  Packet.encode buf (Packet.Psb { tsc = 0 });
  Packet.encode buf
    (Packet.Fup { pc = Lir.Irmod.block_start_pc m ~fname:"main" ~label:"entry" });
  Packet.encode buf (Packet.Tnt true);
  let d = Pt.Decoder.decode m ~config:Pt.Config.default (Buffer.to_bytes buf) in
  Alcotest.(check bool) "flagged as desync" true d.Pt.Decoder.desynced

(* A packet carrying any 63-bit pattern, negative included: the encoder
   refuses those, but a damaged ring can hold them. *)
let raw_packet buf ~hdr v =
  Buffer.add_char buf (Char.chr hdr);
  let rec go v =
    if v land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr ((v land 0x7f) lor 0x80));
      go (v lsr 7)
    end
  in
  go v

let test_decoder_garbage_pcs_desync () =
  let m = fixture_module () in
  let config = Pt.Config.default in
  let header p =
    let b = Buffer.create 4 in
    Packet.encode b p;
    Char.code (Buffer.nth b 0)
  in
  let fup_hdr = header (Packet.Fup { pc = 0 }) in
  let tip_hdr = header (Packet.Tip { pc = 0 }) in
  let last_pc = ref 0 and bump_last = ref 0 in
  Lir.Irmod.iter_instrs m (fun f _ i ->
      last_pc := max !last_pc i.Lir.Instr.pc;
      if f.Lir.Func.fname = "bump" then bump_last := max !bump_last i.Lir.Instr.pc);
  let bump = Lir.Irmod.block_start_pc m ~fname:"bump" ~label:"entry" in
  (* The padding after bump, up to the next 4 KB-aligned function. *)
  Alcotest.(check bool) "bump leaves padding" true ((!bump_last + 4) land 0xfff <> 0);
  List.iter
    (fun (what, pc) ->
      let buf = Buffer.create 32 in
      Packet.encode buf (Packet.Psb { tsc = 0 });
      raw_packet buf ~hdr:fup_hdr pc;
      Packet.encode buf (Packet.Tnt true);
      let d = Pt.Decoder.decode m ~config (Buffer.to_bytes buf) in
      Alcotest.(check bool) (what ^ " desyncs") true d.Pt.Decoder.desynced;
      Alcotest.(check int) (what ^ ": no steps") 0 (Array.length d.Pt.Decoder.steps))
    [
      ("unaligned pc", bump + 2);
      ("padding between functions", !bump_last + 4);
      ("pc past the last function", !last_pc + 4);
      ("pc pages past the last function", !last_pc + 0x10000);
      ("negative pc", -4);
    ];
  (* bump opens with its mutex_lock call; its return TIP names a negative
     target, where the walk cannot go on. *)
  let buf = Buffer.create 32 in
  Packet.encode buf (Packet.Psb { tsc = 0 });
  Packet.encode buf (Packet.Fup { pc = bump });
  raw_packet buf ~hdr:tip_hdr (-8);
  Packet.encode buf (Packet.Tnt true);
  let d = Pt.Decoder.decode m ~config (Buffer.to_bytes buf) in
  Alcotest.(check bool) "negative TIP target desyncs" true d.Pt.Decoder.desynced;
  Alcotest.(check (list int)) "only the call before it decodes" [ bump ]
    (List.map (fun s -> s.Pt.Decoder.pc) (steps_list d))

let test_one_image_for_sim_and_decode () =
  let m = fixture_module () in
  let result, driver, _ = run_with_oracle m in
  let img = Lir.Lowered.of_module m in
  let main = Lir.Lowered.find_func img "main" in
  Alcotest.(check bool) "the run lowered main" true (main.Lir.Lowered.lowered <> None);
  Alcotest.(check bool) "no decode yet" true (main.Lir.Lowered.walk = None);
  let snap =
    Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
  in
  List.iter
    (fun (_, ring) ->
      let d = Pt.Decoder.decode m ~config:Pt.Config.default ring in
      Alcotest.(check bool) "decodes clean" false d.Pt.Decoder.desynced)
    snap.Pt.Driver.traces;
  Alcotest.(check bool) "same image" true (Lir.Lowered.of_module m == img);
  Array.iter
    (fun (f : Lir.Lowered.func) ->
      Alcotest.(check bool)
        (f.Lir.Lowered.fn.Lir.Func.fname ^ ": decoded where it ran")
        (f.Lir.Lowered.lowered <> None)
        (f.Lir.Lowered.walk <> None))
    (Lir.Lowered.funcs img)

(* --- decode cache -------------------------------------------------------- *)

module Cache = Pt.Decode_cache

let cache_fixture () =
  let m = fixture_module () in
  let result, driver, _ = run_with_oracle m in
  let snap =
    Pt.Driver.snapshot_now driver ~at_time_ns:result.Sim.Interp.final_time_ns
  in
  let _, bytes = List.hd snap.Pt.Driver.traces in
  (m, bytes)

let test_cache_find_add_stats () =
  let m, bytes = cache_fixture () in
  let c = Cache.create ~capacity:4 () in
  let k = Cache.key m ~config:Pt.Config.default bytes in
  Alcotest.(check bool) "cold probe misses" true (Cache.find c k = None);
  let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
  Cache.add c k d;
  (match Cache.find c k with
  | Some d' ->
    (* The cached result is shared, not copied: steps arrays are the
       contract's "treat as immutable" values. *)
    Alcotest.(check bool) "hit shares the result" true (d' == d)
  | None -> Alcotest.fail "expected a hit after add");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 0 s.Cache.evictions;
  Alcotest.(check int) "entries" 1 s.Cache.entries

let test_cache_key_sensitivity () =
  let m, bytes = cache_fixture () in
  let config = Pt.Config.default in
  let k = Cache.key m ~config bytes in
  Alcotest.(check string) "same inputs, same key" k (Cache.key m ~config bytes);
  (* The tail replay target changes the decoded step suffix, so it MUST
     change the key: a no-tail decode cached for a tailed request would
     silently truncate the failing thread's steps. *)
  let k_tail = Cache.key m ~config ~tail_stop:(0x40, 900) bytes in
  Alcotest.(check bool) "tail_stop in key" false (k = k_tail);
  Alcotest.(check bool) "different tail pc differs" false
    (k_tail = Cache.key m ~config ~tail_stop:(0x44, 900) bytes);
  Alcotest.(check bool) "different tail time differs" false
    (k_tail = Cache.key m ~config ~tail_stop:(0x40, 901) bytes);
  let other_cfg = { config with Pt.Config.timing = Pt.Config.No_timing } in
  Alcotest.(check bool) "config in key" false
    (k = Cache.key m ~config:other_cfg bytes);
  let flipped = Bytes.copy bytes in
  Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 1));
  Alcotest.(check bool) "snapshot bytes in key" false
    (k = Cache.key m ~config flipped)

(* One decode result shared by every op: the hammer exercises the
   cache's locking and accounting, not the decoder. *)
let hammer_fixture =
  lazy
    (let m, bytes = cache_fixture () in
     Pt.Decoder.decode m ~config:Pt.Config.default bytes)

(* A two-entry cache protects nothing, so it is exact LRU: the entry hit
   before two later inserts is the victim, where a protected queue would
   have kept it and evicted [2]. *)
let test_cache_lru_eviction () =
  let m, bytes = cache_fixture () in
  let c = Cache.create ~capacity:2 () in
  let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
  let key_n n = Cache.key m ~config:Pt.Config.default ~tail_stop:(n, 0) bytes in
  Cache.add c (key_n 1) d;
  Cache.add c (key_n 2) d;
  (* Touch 1 so 2 becomes the LRU victim when 3 arrives. *)
  Alcotest.(check bool) "1 hits" true (Cache.find c (key_n 1) <> None);
  Cache.add c (key_n 3) d;
  Alcotest.(check bool) "1 survives" true (Cache.find c (key_n 1) <> None);
  Alcotest.(check bool) "2 evicted" true (Cache.find c (key_n 2) = None);
  Alcotest.(check bool) "3 present" true (Cache.find c (key_n 3) <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "entries at capacity" 2 s.Cache.entries;
  (* 3 was hit last, 1 before it.  A protected queue would keep both;
     plain LRU lets a fourth key take 1 and a fifth take 3. *)
  Cache.add c (key_n 4) d;
  Alcotest.(check bool) "hit-then-idle 1 evicted" true
    (Cache.find c (key_n 1) = None);
  Cache.add c (key_n 5) d;
  Alcotest.(check bool) "3 evicted next" true (Cache.find c (key_n 3) = None);
  let one = Cache.create ~capacity:1 () in
  Cache.add one (key_n 1) d;
  ignore (Cache.find one (key_n 1));
  Cache.add one (key_n 2) d;
  Alcotest.(check bool) "1-entry: newest wins" true
    (Cache.find one (key_n 1) = None && Cache.find one (key_n 2) <> None)

(* Run [f] under a private scope; return its result and the promotions
   it counted. *)
let with_promotions f =
  let ctx = Obs.Scope.make () in
  let r = Obs.Scope.using ctx f in
  let n =
    Option.value ~default:0
      (Obs.Metrics.find_counter ctx.Obs.Scope.metrics "decode_cache/promotions")
  in
  (r, n)

let resident c k = Cache.find c k <> None

let test_cache_promotion () =
  let d = Lazy.force hammer_fixture in
  let c = Cache.create ~capacity:4 () in
  let (), promoted =
    with_promotions (fun () ->
        Cache.add c "a" d;
        Cache.add c "a" d;
        (* a re-add is not a hit: still on probation *)
        ignore (Cache.find c "a");
        ignore (Cache.find c "a"))
  in
  Alcotest.(check int) "promoted once, on its first hit" 1 promoted;
  (* [a] was hit before b, c, d arrived, so plain LRU would evict it for
     [e]; protected, it outlives the three entries seen only once. *)
  List.iter (fun k -> Cache.add c k d) [ "b"; "c"; "d"; "e" ];
  Alcotest.(check bool) "promoted a survives" true (resident c "a");
  Alcotest.(check bool) "probation LRU b evicted" false (resident c "b")

let test_cache_probation_evicted_first () =
  let d = Lazy.force hammer_fixture in
  (* 10 slots: 8 protected.  Promote x and y, fill the rest with
     once-seen keys, then keep inserting: evictions walk probation in
     LRU order and never touch the protected pair. *)
  let c = Cache.create ~capacity:10 () in
  Cache.add c "x" d;
  Cache.add c "y" d;
  ignore (Cache.find c "x");
  ignore (Cache.find c "y");
  let once n = Printf.sprintf "once%d" n in
  for n = 1 to 8 do
    Cache.add c (once n) d
  done;
  Cache.add c (once 9) d;
  Cache.add c (once 10) d;
  let s = Cache.stats c in
  Alcotest.(check int) "two evictions" 2 s.Cache.evictions;
  Alcotest.(check int) "full" 10 s.Cache.entries;
  Alcotest.(check bool) "oldest once-seen evicted first" false
    (resident c (once 1) || resident c (once 2));
  Alcotest.(check bool) "next once-seen still there" true (resident c (once 3));
  Alcotest.(check bool) "protected pair kept" true
    (resident c "x" && resident c "y")

let test_cache_demotion () =
  let d = Lazy.force hammer_fixture in
  (* 6 slots: 4 protected.  Promoting a fifth entry demotes the protected
     LRU [a] to probation; it stays resident (no eviction) but is now what
     a scan of new keys reaches, while b..e stay protected. *)
  let c = Cache.create ~capacity:6 () in
  let keys = [ "a"; "b"; "c"; "d"; "e" ] in
  List.iter (fun k -> Cache.add c k d) keys;
  let (), promoted =
    with_promotions (fun () -> List.iter (fun k -> ignore (Cache.find c k)) keys)
  in
  Alcotest.(check int) "five promotions" 5 promoted;
  let s = Cache.stats c in
  Alcotest.(check int) "demotion evicts nothing" 0 s.Cache.evictions;
  Alcotest.(check int) "all five resident" 5 s.Cache.entries;
  List.iter (fun k -> Cache.add c k d) [ "s1"; "s2"; "s3"; "s4" ];
  Alcotest.(check bool) "demoted a scanned out" false (resident c "a");
  Alcotest.(check bool) "protected b..e survive the scan" true
    (List.for_all (resident c) [ "b"; "c"; "d"; "e" ])

(* The stripe a key lands in, read off a fresh cache with the same
   stripe count: the only segment holding an entry after one add. *)
let stripe_of ~capacity k =
  let probe = Cache.create ~capacity () in
  Cache.add probe k (Lazy.force hammer_fixture);
  let segs = Cache.segment_stats probe in
  let rec find i = if segs.(i).Cache.entries > 0 then i else find (i + 1) in
  find 0

let keys_by_stripe ~capacity ~per_stripe =
  let nsegs = Cache.segments (Cache.create ~capacity ()) in
  let by = Array.make nsegs [] in
  let n = ref 0 in
  while Array.exists (fun ks -> List.length ks < per_stripe) by do
    let k = Printf.sprintf "s%d" !n in
    incr n;
    let i = stripe_of ~capacity k in
    if List.length by.(i) < per_stripe then by.(i) <- by.(i) @ [ k ]
  done;
  by

let test_cache_tiny_stripes_stay_lru () =
  (* [set_capacity] below the stripe count leaves 2-, 1- and 0-slot
     stripes; each must still behave as LRU (or as disabled). *)
  let d = Lazy.force hammer_fixture in
  let by = keys_by_stripe ~capacity:1024 ~per_stripe:3 in
  let nsegs = Array.length by in
  List.iter
    (fun cap ->
      let c = Cache.create ~capacity:1024 () in
      Cache.set_capacity c cap;
      Array.iteri
        (fun i ks ->
          match ks with
          | [ k1; k2; k3 ] ->
            Cache.add c k1 d;
            ignore (Cache.find c k1);
            Cache.add c k2 d;
            Cache.add c k3 d;
            let slots = (Cache.segment_stats c).(i).Cache.entries in
            let expect =
              match slots with
              | 0 -> [ false; false; false ]
              | 1 -> [ false; false; true ]
              | _ -> [ false; true; true ]
            in
            Alcotest.(check (list bool))
              (Printf.sprintf "cap %d stripe %d (%d slots) is LRU" cap i slots)
              expect
              (List.map (resident c) [ k1; k2; k3 ])
          | _ -> assert false)
        by;
      let s = Cache.stats c in
      Alcotest.(check int)
        (Printf.sprintf "cap %d: every slot used" cap)
        cap s.Cache.entries)
    [ nsegs / 2; nsegs; nsegs + (nsegs / 4) ]

let test_cache_scan_resistance () =
  (* The fleet's hot decodes are hit again and again; a fix sweep's are
     probed once.  After 2x capacity one-hit keys, every twice-hit key
     is still resident — in a single stripe and in the default striped
     cache. *)
  let d = Lazy.force hammer_fixture in
  List.iter
    (fun (capacity, hot) ->
      let c = Cache.create ~capacity () in
      let hot_keys = List.init hot (Printf.sprintf "hot%d") in
      List.iter
        (fun k ->
          Cache.add c k d;
          ignore (Cache.find c k);
          ignore (Cache.find c k))
        hot_keys;
      for n = 1 to 2 * capacity do
        let k = Printf.sprintf "scan%d" n in
        if Cache.find c k = None then Cache.add c k d
      done;
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: all %d hot keys resident" capacity hot)
        true
        (List.for_all (resident c) hot_keys))
    [ (50, 30); (Cache.capacity Cache.shared, 352) ]

let test_cache_capacity_zero_disabled () =
  let m, bytes = cache_fixture () in
  let c = Cache.create ~capacity:0 () in
  Alcotest.(check bool) "disabled" false (Cache.enabled c);
  let k = Cache.key m ~config:Pt.Config.default bytes in
  let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
  Cache.add c k d;
  Alcotest.(check bool) "add is a no-op" true (Cache.find c k = None);
  Alcotest.(check int) "nothing stored" 0 (Cache.stats c).Cache.entries

let test_cache_set_capacity_shrinks () =
  let m, bytes = cache_fixture () in
  let c = Cache.create ~capacity:8 () in
  let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
  for n = 1 to 6 do
    Cache.add c (Cache.key m ~config:Pt.Config.default ~tail_stop:(n, 0) bytes) d
  done;
  Cache.set_capacity c 2;
  let s = Cache.stats c in
  Alcotest.(check int) "shrunk to capacity" 2 s.Cache.entries;
  Alcotest.(check int) "shrink counted as evictions" 4 s.Cache.evictions;
  Cache.clear c;
  let s = Cache.stats c in
  Alcotest.(check int) "clear empties" 0 s.Cache.entries;
  Alcotest.(check int) "clear resets counters" 0 s.Cache.evictions

let test_cache_hit_equals_fresh_decode () =
  let m, bytes = cache_fixture () in
  let c = Cache.create ~capacity:4 () in
  let config = Pt.Config.default in
  let k = Cache.key m ~config bytes in
  Cache.add c k (Pt.Decoder.decode m ~config bytes);
  let cached = Option.get (Cache.find c k) in
  let fresh = Pt.Decoder.decode m ~config bytes in
  Alcotest.(check bool) "steps equal" true
    (cached.Pt.Decoder.steps = fresh.Pt.Decoder.steps);
  Alcotest.(check int) "lost_bytes equal" fresh.Pt.Decoder.lost_bytes
    cached.Pt.Decoder.lost_bytes;
  Alcotest.(check bool) "desynced equal" fresh.Pt.Decoder.desynced
    cached.Pt.Decoder.desynced

let test_cache_striping () =
  (* Small caches keep one segment — the exact eviction order the unit
     tests above rely on; big caches stripe, and capacity spreads across
     the segments with the summed stats still reconciling. *)
  let small = Cache.create ~capacity:8 () in
  Alcotest.(check int) "small cache single-segment" 1 (Cache.segments small);
  let big = Cache.create ~capacity:256 () in
  Alcotest.(check bool) "big cache stripes" true (Cache.segments big > 1);
  let m, bytes = cache_fixture () in
  let d = Pt.Decoder.decode m ~config:Pt.Config.default bytes in
  for n = 1 to 300 do
    Cache.add big (Printf.sprintf "k%d" n) d
  done;
  let s = Cache.stats big in
  Alcotest.(check bool) "entries bounded by capacity" true
    (s.Cache.entries <= 256);
  let segs = Cache.segment_stats big in
  Alcotest.(check int) "one stats row per segment" (Cache.segments big)
    (Array.length segs);
  let sum f = Array.fold_left (fun a (x : Cache.stats) -> a + f x) 0 segs in
  Alcotest.(check int) "per-segment entries sum" s.Cache.entries
    (sum (fun x -> x.Cache.entries));
  Alcotest.(check int) "per-segment evictions sum" s.Cache.evictions
    (sum (fun x -> x.Cache.evictions))

(* Every key the server derives from the corpus's shipped rings, folded
   into one digest: each ring of every bug's collected failing and success
   reports, keyed with and without its report's tail stop.  Key strings
   are what a warm cache matches on, so a change to how the key is built
   (e.g. where the module's instruction count comes from) must leave
   every one of them byte-identical. *)
let golden_key_digest = "4f0a0578234ca7a0abf32e093e638962"

let golden_key_text () =
  let buf = Buffer.create (1 lsl 16) in
  let config = Pt.Config.default in
  let add_ring m ~tail (tid, bytes) =
    Printf.bprintf buf "%d %s %s\n" tid
      (Digest.to_hex (Cache.key m ~config bytes))
      (Digest.to_hex (Cache.key m ~config ~tail_stop:tail bytes))
  in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      Printf.bprintf buf "%s\n" bug.Corpus.Bug.id;
      match Corpus.Runner.collect bug () with
      | Error e -> Printf.bprintf buf "error %s\n" e
      | Ok c ->
        let m = c.Corpus.Runner.built.Corpus.Bug.m in
        List.iter
          (fun (f : Snorlax_core.Report.failing_report) ->
            let pc =
              (Lir.Irmod.instr_by_iid m
                 (Snorlax_core.Report.failing_anchor_iid f)).Lir.Instr.pc
            in
            let tail = (pc, f.Snorlax_core.Report.failure_time_ns) in
            List.iter (add_ring m ~tail) f.Snorlax_core.Report.traces)
          c.Corpus.Runner.failing;
        List.iter
          (fun (s : Snorlax_core.Report.success_report) ->
            let tail =
              ( s.Snorlax_core.Report.trigger_pc,
                s.Snorlax_core.Report.trigger_time_ns )
            in
            List.iter (add_ring m ~tail) s.Snorlax_core.Report.s_traces)
          c.Corpus.Runner.successful)
    Corpus.Registry.all;
  Buffer.contents buf

let test_cache_golden_keys () =
  let text = golden_key_text () in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "every bug collects" 0
    (List.length (List.filter (String.starts_with ~prefix:"error") lines));
  Alcotest.(check string) "corpus key digest" golden_key_digest
    (Digest.to_hex (Digest.string text))

let prop_cache_multidomain_accounting =
  QCheck.Test.make
    ~name:"striped cache accounting reconciles under concurrent domains"
    ~count:10
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (ndom, salt) ->
      let d = Lazy.force hammer_fixture in
      let c = Cache.create ~capacity:128 () in
      let nkeys = 200 and ops = 400 in
      let worker w () =
        let probes = ref 0 in
        for i = 0 to ops - 1 do
          let k = Printf.sprintf "k%d" (((i * (w + salt + 1)) + w) mod nkeys) in
          incr probes;
          match Cache.find c k with
          | Some _ -> ()
          | None -> Cache.add c k d
        done;
        !probes
      in
      let doms = List.init ndom (fun w -> Domain.spawn (worker w)) in
      let probes = List.fold_left (fun a t -> a + Domain.join t) 0 doms in
      let s = Cache.stats c in
      let segs = Cache.segment_stats c in
      let sum f = Array.fold_left (fun a (x : Cache.stats) -> a + f x) 0 segs in
      (* Every probe is a hit or a miss, never lost or double-counted;
         the per-segment rows sum to the summed stats; entries stay
         within capacity; and nothing materializes entries out of thin
         air (every entry and eviction traces back to a missed add). *)
      s.Cache.hits + s.Cache.misses = probes
      && sum (fun x -> x.Cache.hits) = s.Cache.hits
      && sum (fun x -> x.Cache.misses) = s.Cache.misses
      && sum (fun x -> x.Cache.evictions) = s.Cache.evictions
      && sum (fun x -> x.Cache.entries) = s.Cache.entries
      && s.Cache.entries <= 128
      && s.Cache.entries + s.Cache.evictions <= s.Cache.misses
      && Array.length segs = Cache.segments c)

let qtest = QCheck_alcotest.to_alcotest

(* --- tracer encoding identity ----------------------------------------- *)

(* The tracer writes packets straight into its rings; [Packet.encode] stays
   the reference encoding.  Every ring of every corpus bug on seeds 1-20,
   read back packet by packet and re-encoded, must give its own bytes. *)
let reencode ring =
  let buf = Buffer.create (Bytes.length ring) in
  let c = Packet.Cursor.make ring ~pos:0 in
  let rec go () =
    Packet.Cursor.advance c;
    let v = c.Packet.Cursor.value in
    let p =
      match c.Packet.Cursor.kind with
      | Packet.Cursor.Eof -> None
      | Packet.Cursor.Psb -> Some (Packet.Psb { tsc = v })
      | Packet.Cursor.Fup -> Some (Packet.Fup { pc = v })
      | Packet.Cursor.Tip -> Some (Packet.Tip { pc = v })
      | Packet.Cursor.Tip_end -> Some Packet.Tip_end
      | Packet.Cursor.Tnt ->
        Some (Packet.Tnt_packed { bits = v; count = c.Packet.Cursor.count })
      | Packet.Cursor.Mtc -> Some (Packet.Mtc { ctc = v })
      | Packet.Cursor.Tma -> Some (Packet.Tma { tsc = v })
      | Packet.Cursor.Cyc -> Some (Packet.Cyc { delta = v })
    in
    match p with
    | None -> ()
    | Some p ->
      Packet.encode buf p;
      go ()
  in
  go ();
  Buffer.to_bytes buf

let test_tracer_rings_reencode () =
  let rings = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      let built = bug.build () in
      for seed = 1 to 20 do
        match Corpus.Runner.run_traced ~built ~entry:bug.entry ~seed () with
        | exception Failure _ -> ()
        | run ->
          List.iter
            (fun (tid, ring) ->
              incr rings;
              (* Unwrapped at the default 64 KB: the ring starts at its PSB. *)
              if Bytes.length ring > 0 && Packet.scan_psb ring ~pos:0 <> Some 0 then
                Alcotest.failf "%s seed %d tid %d: ring does not start at a PSB"
                  bug.id seed tid;
              if not (Bytes.equal (reencode ring) ring) then
                Alcotest.failf "%s seed %d tid %d: re-encoded ring differs" bug.id
                  seed tid)
            (Pt.Tracer.snapshot (Pt.Driver.tracer run.Corpus.Runner.driver))
      done)
    Corpus.Registry.all;
  Alcotest.(check bool) "rings checked" true (!rings > 1000)

let tests =
  [
    ( "pt.packets",
      [
        qtest prop_packet_roundtrip;
        qtest prop_cursor_agrees_from_every_psb;
        qtest prop_psb_unique;
        qtest prop_packed_tnt_equals_per_bit;
        Alcotest.test_case "psb after garbage" `Quick test_psb_found_after_garbage;
        Alcotest.test_case "truncated dropped" `Quick test_truncated_packet_dropped;
        Alcotest.test_case "tracer rings re-encode" `Quick test_tracer_rings_reencode;
      ] );
    ( "pt.decoder",
      [
        Alcotest.test_case "matches execution" `Quick test_decoder_matches_execution;
        Alcotest.test_case "time bounds contain truth" `Quick
          test_decoder_time_bounds_contain_truth;
        Alcotest.test_case "ring wrap resync" `Quick test_ring_wrap_resync;
        Alcotest.test_case "tail reaches crash" `Quick test_tail_stop_reaches_failing_pc;
        Alcotest.test_case "timing modes" `Quick test_timing_modes_degrade_gracefully;
        Alcotest.test_case "open time window is explicit" `Quick
          test_open_window_is_explicit;
        Alcotest.test_case "empty and garbage input" `Quick
          test_decoder_empty_and_garbage;
        Alcotest.test_case "mismatched stream desyncs" `Quick
          test_decoder_mismatched_stream_desyncs;
        Alcotest.test_case "garbage pcs desync" `Quick
          test_decoder_garbage_pcs_desync;
        Alcotest.test_case "one image for sim and decode" `Quick
          test_one_image_for_sim_and_decode;
        Alcotest.test_case "thread_ended surfaced" `Quick
          test_thread_ended_surfaced;
        qtest prop_decoder_total_on_corrupt_rings;
      ] );
    ( "pt.driver",
      [
        Alcotest.test_case "tracer stats" `Quick test_tracer_stats;
        Alcotest.test_case "watchpoint fires" `Quick test_watchpoint_fires;
        Alcotest.test_case "native watchpoint == reference (pbzip2-1)" `Quick
          test_watchpoint_matches_reference_on_corpus;
        Alcotest.test_case "watchpoint primary and replacement" `Quick
          test_watchpoint_primary_and_replacement;
        Alcotest.test_case "watchpoint combine" `Quick test_watchpoint_combine;
      ] );
    ( "pt.decode_cache",
      [
        Alcotest.test_case "find/add/stats" `Quick test_cache_find_add_stats;
        Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "capacity 0 disables" `Quick
          test_cache_capacity_zero_disabled;
        Alcotest.test_case "set_capacity shrinks, clear resets" `Quick
          test_cache_set_capacity_shrinks;
        Alcotest.test_case "hit equals fresh decode" `Quick
          test_cache_hit_equals_fresh_decode;
        Alcotest.test_case "striping" `Quick test_cache_striping;
        qtest prop_cache_multidomain_accounting;
        Alcotest.test_case "promotion on a hit" `Quick test_cache_promotion;
        Alcotest.test_case "probation evicted first" `Quick
          test_cache_probation_evicted_first;
        Alcotest.test_case "demotion when protected is full" `Quick
          test_cache_demotion;
        Alcotest.test_case "1- and 2-slot stripes stay LRU" `Quick
          test_cache_tiny_stripes_stay_lru;
        Alcotest.test_case "scan resistance" `Quick test_cache_scan_resistance;
        Alcotest.test_case "golden corpus keys" `Slow test_cache_golden_keys;
      ] );
  ]
