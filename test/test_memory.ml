(* Direct tests of the simulated address space: region layout, fault
   classification, allocation and stack discipline. *)

module B = Lir.Builder
module T = Lir.Ty
module Memory = Sim.Memory

(* Faults as values, so each case can name the one it expects. *)
let read mem ~addr =
  match Memory.load mem ~addr with
  | v -> Ok v
  | exception Memory.Fault e -> Error e

let write mem ~addr ~value =
  match Memory.store mem ~addr ~value with
  | () -> Ok ()
  | exception Memory.Fault e -> Error e

let fresh () =
  let mem = Memory.create () in
  let m = Lir.Irmod.create "mem" in
  Lir.Irmod.declare_global m "g1" T.I64;
  Lir.Irmod.declare_global m "g2" (T.Ptr T.I64);
  Memory.load_globals mem m;
  mem

let test_null_page_faults () =
  let mem = fresh () in
  (match read mem ~addr:0 with
  | Error Memory.Null -> ()
  | _ -> Alcotest.fail "addr 0 must be Null");
  (match write mem ~addr:0xfff ~value:1 with
  | Error Memory.Null -> ()
  | _ -> Alcotest.fail "near-null write must fault")

let test_code_region_unmapped () =
  let mem = fresh () in
  match read mem ~addr:0x2000 with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "code region must not be data-readable"

let test_globals_rw () =
  let mem = fresh () in
  let a1 = Memory.global_addr mem "g1" in
  let a2 = Memory.global_addr mem "g2" in
  Alcotest.(check bool) "distinct addresses" true (a1 <> a2);
  (match read mem ~addr:a1 with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "globals zero-initialized");
  (match write mem ~addr:a1 ~value:77 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "global writable");
  (match read mem ~addr:a1 with
  | Ok 77 -> ()
  | _ -> Alcotest.fail "global readback");
  match read mem ~addr:a2 with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "sibling global untouched"

let test_heap_alloc_free () =
  let mem = fresh () in
  let a = Memory.alloc_heap mem ~size:16 in
  let b = Memory.alloc_heap mem ~size:16 in
  Alcotest.(check bool) "bump allocation grows" true (b > a);
  (match write mem ~addr:a ~value:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "live heap writable");
  (match Memory.free_heap mem a with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "free of live base");
  (match read mem ~addr:a with
  | Error Memory.Freed -> ()
  | _ -> Alcotest.fail "UAF classified as Freed");
  (match read mem ~addr:(a + 8) with
  | Error Memory.Freed -> ()
  | _ -> Alcotest.fail "interior of freed range also Freed");
  match Memory.free_heap mem a with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "double free rejected"

let test_heap_beyond_bump_unmapped () =
  let mem = fresh () in
  let a = Memory.alloc_heap mem ~size:8 in
  match read mem ~addr:(a + 4096) with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "unallocated heap is unmapped"

let test_free_of_wild_pointer () =
  let mem = fresh () in
  match Memory.free_heap mem 0x1234_5678 with
  | Error Memory.Unmapped -> ()
  | _ -> Alcotest.fail "free of non-allocation rejected"

let test_stack_discipline () =
  let mem = fresh () in
  let mark = Memory.frame_mark mem ~tid:3 in
  let s1 = Memory.alloc_stack mem ~tid:3 ~size:8 in
  let s2 = Memory.alloc_stack mem ~tid:3 ~size:8 in
  Alcotest.(check bool) "stack grows" true (s2 > s1);
  (match write mem ~addr:s1 ~value:5 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "stack slot writable");
  Memory.pop_frame mem ~tid:3 ~mark;
  let s3 = Memory.alloc_stack mem ~tid:3 ~size:8 in
  Alcotest.(check int) "frame reuse after pop" s1 s3

let test_thread_stacks_disjoint () =
  let mem = fresh () in
  let a = Memory.alloc_stack mem ~tid:0 ~size:8 in
  let b = Memory.alloc_stack mem ~tid:1 ~size:8 in
  Alcotest.(check bool) "per-thread regions" true (abs (a - b) >= 0x10_0000)

(* Cells live in a table that starts small and grows with the run: many
   distinct words across the regions must all read back, and a valid
   word never written still reads 0. *)
let test_many_cells_read_back () =
  let mem = fresh () in
  let g = Memory.global_addr mem "g1" in
  let heap = Memory.alloc_heap mem ~size:(8 * 3000) in
  let stack = Memory.alloc_stack mem ~tid:2 ~size:(8 * 3000) in
  let addrs =
    g
    :: List.concat_map
         (fun k -> [ heap + (8 * k); stack + (8 * k) ])
         (List.init 3000 Fun.id)
  in
  List.iteri (fun k addr -> ignore (write mem ~addr ~value:(k + 1))) addrs;
  List.iteri
    (fun k addr ->
      match read mem ~addr with
      | Ok v when v = k + 1 -> ()
      | _ -> Alcotest.failf "cell 0x%x lost" addr)
    addrs;
  match read mem ~addr:(heap + 4) with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "unwritten word reads 0"

let tests =
  [
    ( "sim.memory",
      [
        Alcotest.test_case "null page" `Quick test_null_page_faults;
        Alcotest.test_case "code region unmapped" `Quick test_code_region_unmapped;
        Alcotest.test_case "globals r/w" `Quick test_globals_rw;
        Alcotest.test_case "heap alloc/free/UAF" `Quick test_heap_alloc_free;
        Alcotest.test_case "beyond bump unmapped" `Quick
          test_heap_beyond_bump_unmapped;
        Alcotest.test_case "wild free rejected" `Quick test_free_of_wild_pointer;
        Alcotest.test_case "stack discipline" `Quick test_stack_discipline;
        Alcotest.test_case "thread stacks disjoint" `Quick
          test_thread_stacks_disjoint;
        Alcotest.test_case "many cells read back" `Quick
          test_many_cells_read_back;
      ] );
  ]
