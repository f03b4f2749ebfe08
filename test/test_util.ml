(* Unit and property tests for the utility layer: PRNG, ring buffer,
   varint codec, statistics, table renderer. *)

module Prng = Snorlax_util.Prng
module Ringbuf = Snorlax_util.Ringbuf
module Varint = Snorlax_util.Varint
module Stats = Snorlax_util.Stats
module Tablefmt = Snorlax_util.Tablefmt

let check_float = Alcotest.(check (float 1e-9))

(* --- prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

(* Known answers: the SplitMix64 stream every seeded run, corpus digest
   and bench figure depends on, pinned per draw kind for three seeds.
   Each seed draws 3 x next64, then 3 x int, 3 x float, 3 x in_range
   from one generator. *)
let test_prng_known_answers () =
  let cases =
    [
      ( 0,
        [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL ],
        [ 732; 747; 186 ],
        [ 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3 ],
        [ 1; -5; 3 ] );
      ( 1,
        [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL ],
        [ 331; 857; 336 ],
        [ 0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2 ],
        [ -4; -2; 3 ] );
      ( 42,
        [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L ],
        [ 860; 250; 350 ],
        [ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ],
        [ -3; -3; -5 ] );
    ]
  in
  List.iter
    (fun (seed, raw, ints, floats, ranged) ->
      let t = Prng.create ~seed in
      let draw f = List.init 3 (fun _ -> f t) in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "next64") raw (draw Prng.next64);
      Alcotest.(check (list int)) (name "int") ints
        (draw (Prng.int ~bound:1000));
      (* Bit equality, not a tolerance: the simulator's clocks are sums
         of these draws. *)
      Alcotest.(check (list int64)) (name "float")
        (List.map Int64.bits_of_float floats)
        (List.map Int64.bits_of_float (draw (Prng.float ~bound:1.0)));
      Alcotest.(check (list int)) (name "in_range") ranged
        (draw (Prng.in_range ~lo:(-5) ~hi:5)))
    cases

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false
    (Prng.next64 a = Prng.next64 b)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:7 in
  let b = Prng.copy a in
  ignore (Prng.next64 a);
  ignore (Prng.next64 a);
  let third_of_a = Prng.next64 a in
  ignore (Prng.next64 b);
  ignore (Prng.next64 b);
  Alcotest.(check int64) "copy replays" third_of_a (Prng.next64 b)

let test_prng_split () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs" false
    (Prng.next64 a = Prng.next64 b)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays within [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Prng.create ~seed in
      let v = Prng.int t ~bound in
      v >= 0 && v < bound)

let prop_in_range =
  QCheck.Test.make ~name:"Prng.in_range inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let t = Prng.create ~seed in
      let v = Prng.in_range t ~lo ~hi in
      v >= lo && v <= hi)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Prng.float stays within [0, bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let t = Prng.create ~seed in
      let v = Prng.float t ~bound in
      v >= 0.0 && v < bound)

let test_prng_chance_extremes () =
  let t = Prng.create ~seed:3 in
  Alcotest.(check bool) "p=0 never" false (Prng.chance t ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.chance t ~p:1.0)

let test_prng_uniformity () =
  (* Rough chi-square-free sanity: all buckets populated. *)
  let t = Prng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.int t ~bound:10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (n > 800 && n < 1200))
    buckets

let test_prng_shuffle_permutes () =
  let t = Prng.create ~seed:5 in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

let test_prng_pick_member () =
  let t = Prng.create ~seed:5 in
  let arr = [| 2; 4; 8 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "picked element" true (Array.mem (Prng.pick t arr) arr)
  done

(* --- ringbuf ------------------------------------------------------------ *)

let test_ringbuf_basic () =
  let rb = Ringbuf.create ~capacity:8 in
  Ringbuf.write_bytes rb (Bytes.of_string "abc");
  Alcotest.(check int) "length" 3 (Ringbuf.length rb);
  Alcotest.(check string) "snapshot" "abc" (Bytes.to_string (Ringbuf.snapshot rb));
  Alcotest.(check bool) "not wrapped" false (Ringbuf.wrapped rb)

let test_ringbuf_wrap () =
  let rb = Ringbuf.create ~capacity:4 in
  Ringbuf.write_bytes rb (Bytes.of_string "abcdefg");
  Alcotest.(check int) "length capped" 4 (Ringbuf.length rb);
  Alcotest.(check string) "keeps newest" "defg"
    (Bytes.to_string (Ringbuf.snapshot rb));
  Alcotest.(check bool) "wrapped" true (Ringbuf.wrapped rb);
  Alcotest.(check int) "total written" 7 (Ringbuf.total_written rb)

let test_ringbuf_clear () =
  let rb = Ringbuf.create ~capacity:4 in
  Ringbuf.write_bytes rb (Bytes.of_string "xyz");
  Ringbuf.clear rb;
  Alcotest.(check int) "empty after clear" 0 (Ringbuf.length rb);
  Alcotest.(check int) "counter reset" 0 (Ringbuf.total_written rb)

let prop_ringbuf_suffix =
  QCheck.Test.make
    ~name:"Ringbuf.snapshot equals the suffix of everything written"
    ~count:200
    QCheck.(pair (int_range 1 64) (string_of_size Gen.(int_range 0 300)))
    (fun (cap, data) ->
      let rb = Ringbuf.create ~capacity:cap in
      Ringbuf.write_bytes rb (Bytes.of_string data);
      let keep = min cap (String.length data) in
      let expected = String.sub data (String.length data - keep) keep in
      String.equal expected (Bytes.to_string (Ringbuf.snapshot rb)))

(* Random chunked writes against a naive model (everything written since
   the last clear, keep the suffix).  Chunk sizes straddle the storage
   growth steps and the wrap point; capacities include 1, non-powers of
   two and sizes above the initial storage; a clear can land after the
   storage has grown. *)
type ring_op = Chunk of string | Byte of int | Clear

let ring_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun s -> Chunk s) (string_size ~gen:char (int_range 0 700)));
        (3, map (fun b -> Byte b) (int_range (-300) 300));
        (1, return Clear);
      ])

let show_ring_op = function
  | Chunk s -> Printf.sprintf "chunk(%d)" (String.length s)
  | Byte b -> Printf.sprintf "byte(%d)" b
  | Clear -> "clear"

let prop_ringbuf_model =
  QCheck.Test.make ~name:"Ringbuf matches a suffix model under chunked writes"
    ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "cap=%d [%s]" cap
           (String.concat "; " (List.map show_ring_op ops)))
       QCheck.Gen.(
         pair
           (oneof
              [ oneofl [ 1; 2; 3; 255; 256; 257; 300; 511; 1000; 4096 ];
                int_range 1 1500 ])
           (list_size (int_range 0 25) ring_op_gen)))
    (fun (cap, ops) ->
      let rb = Ringbuf.create ~capacity:cap in
      let model = Buffer.create 64 in
      let ok = ref true in
      let check () =
        let all = Buffer.contents model in
        let n = String.length all in
        let keep = min cap n in
        ok :=
          !ok
          && String.equal (String.sub all (n - keep) keep)
               (Bytes.to_string (Ringbuf.snapshot rb))
          && Ringbuf.length rb = keep
          && Ringbuf.total_written rb = n
          && Ringbuf.wrapped rb = (n > cap)
          && Ringbuf.storage rb <= cap
      in
      List.iter
        (fun op ->
          (match op with
          | Chunk s ->
            Ringbuf.write_bytes rb (Bytes.of_string s);
            Buffer.add_string model s
          | Byte v ->
            Ringbuf.write_byte rb v;
            Buffer.add_char model (Char.chr (v land 0xff))
          | Clear ->
            Ringbuf.clear rb;
            Buffer.clear model);
          check ())
        ops;
      !ok)

(* A ring holding a few hundred bytes must not allocate its full
   capacity; storage doubles as content arrives and stops at the
   capacity once the ring wraps. *)
let test_ringbuf_content_sized () =
  let rb = Ringbuf.create ~capacity:65536 in
  Ringbuf.write_bytes rb (Bytes.make 480 'x');
  Alcotest.(check bool) "small content, small storage" true
    (Ringbuf.storage rb < 1024);
  Ringbuf.write_bytes rb (Bytes.make 70_000 'y');
  Alcotest.(check int) "full after wrap" 65536 (Ringbuf.storage rb);
  Alcotest.(check bool) "wrapped" true (Ringbuf.wrapped rb);
  Ringbuf.clear rb;
  Ringbuf.write_bytes rb (Bytes.of_string "abc");
  Alcotest.(check string) "clear keeps working storage" "abc"
    (Bytes.to_string (Ringbuf.snapshot rb))

(* A snapshot allocates its result and nothing else: measured in minor
   words against an empty measurement, for wrapped and unwrapped rings. *)
let test_ringbuf_snapshot_allocation () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = words (fun () -> ()) in
  List.iter
    (fun (cap, written) ->
      let rb = Ringbuf.create ~capacity:cap in
      Ringbuf.write_bytes rb (Bytes.make written 'z');
      let n = Ringbuf.length rb in
      let out = ref Bytes.empty in
      let used = words (fun () -> out := Ringbuf.snapshot rb) -. overhead in
      Alcotest.(check int) "snapshot length" n (Bytes.length !out);
      (* header + ceil((n + 1) / 8) payload words, as for any bytes *)
      Alcotest.(check int)
        (Printf.sprintf "cap %d written %d" cap written)
        ((n / 8) + 2)
        (int_of_float used))
    [
      (1000, 0); (1000, 100); (1000, 999); (1000, 1000); (1000, 1700);
      (300, 301);
    ]

(* --- varint ------------------------------------------------------------- *)

(* Generators that always exercise the boundary values (7-bit group edges
   and the int extremes) alongside uniform draws. *)
let unsigned_boundaries = [ 0; 1; 127; 128; 16383; 16384; max_int - 1; max_int ]

let signed_boundaries =
  [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int + 1; min_int ]

let gen_unsigned_with_boundaries =
  QCheck.(
    oneof [ oneofl unsigned_boundaries; int_range 0 max_int ])

let gen_signed_with_boundaries =
  QCheck.(oneof [ oneofl signed_boundaries; int ])

let unsigned_roundtrips v =
  let buf = Buffer.create 10 in
  Varint.write_unsigned buf v;
  Varint.try_read_unsigned (Buffer.to_bytes buf) ~pos:0
  = Some (v, Buffer.length buf)

let signed_roundtrips v =
  let buf = Buffer.create 10 in
  Varint.write_signed buf v;
  Varint.try_read_signed (Buffer.to_bytes buf) ~pos:0
  = Some (v, Buffer.length buf)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"Varint unsigned round-trip" ~count:1000
    gen_unsigned_with_boundaries unsigned_roundtrips

let prop_varint_signed_roundtrip =
  QCheck.Test.make ~name:"Varint signed round-trip" ~count:1000
    gen_signed_with_boundaries signed_roundtrips

let test_varint_boundary_values () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "unsigned %d round-trips" v)
        true (unsigned_roundtrips v))
    unsigned_boundaries;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "signed %d round-trips" v)
        true (signed_roundtrips v))
    signed_boundaries

let encoded_size_agrees v =
  let buf = Buffer.create 10 in
  Varint.write_unsigned buf v;
  Buffer.length buf = Varint.encoded_size v

let prop_varint_size =
  QCheck.Test.make ~name:"Varint.encoded_size matches encoding" ~count:500
    gen_unsigned_with_boundaries encoded_size_agrees

let test_varint_size_boundaries () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "encoded_size %d agrees" v)
        true (encoded_size_agrees v))
    unsigned_boundaries

let prop_varint_try_read_matches =
  QCheck.Test.make
    ~name:"Varint.try_read_unsigned is None on every cut encoding" ~count:500
    gen_unsigned_with_boundaries
    (fun v ->
      let buf = Buffer.create 10 in
      Varint.write_unsigned buf v;
      let b = Buffer.to_bytes buf in
      List.for_all
        (fun n -> Varint.try_read_unsigned (Bytes.sub b 0 n) ~pos:0 = None)
        (List.init (Bytes.length b) Fun.id))

let test_varint_try_read_truncated () =
  let buf = Buffer.create 4 in
  Varint.write_unsigned buf 300;
  let b = Bytes.sub (Buffer.to_bytes buf) 0 1 in
  Alcotest.(check bool) "truncated is None" true
    (Varint.try_read_unsigned b ~pos:0 = None);
  Alcotest.(check bool) "signed truncated is None" true
    (Varint.try_read_signed b ~pos:0 = None);
  Alcotest.(check bool) "negative pos is None" true
    (Varint.try_read_unsigned b ~pos:(-1) = None);
  Alcotest.(check bool) "pos past end is None" true
    (Varint.try_read_unsigned b ~pos:99 = None)

let test_varint_negative_rejected () =
  let buf = Buffer.create 4 in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Varint.write_unsigned: negative") (fun () ->
      Varint.write_unsigned buf (-1))

(* --- stats -------------------------------------------------------------- *)

let test_stats_mean_stddev () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean []);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "population stddev" (sqrt 2.0)
    (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_stats_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_float "empty geomean" 0.0 (Stats.geomean [])

let test_stats_geomean_nonpositive () =
  (* A zero-duration sample must not crash the process: non-positive
     inputs are skipped and the geomean is taken over the positive rest. *)
  check_float "zero sample skipped" 4.0 (Stats.geomean [ 0.0; 2.0; 8.0 ]);
  check_float "negative sample skipped" 4.0 (Stats.geomean [ -3.0; 2.0; 8.0 ]);
  check_float "all non-positive" 0.0 (Stats.geomean [ 0.0; -1.0 ])

let prop_geomean_total =
  QCheck.Test.make
    ~name:"geomean is total and equals the geomean of the positive subset"
    ~count:500
    QCheck.(list (float_range (-1e6) 1e6))
    (fun xs ->
      let v = Stats.geomean xs in
      let positives = List.filter (fun x -> x > 0.0) xs in
      match positives with
      | [] -> v = 0.0
      | _ ->
        let expected =
          exp (Stats.mean (List.map log positives))
        in
        Float.abs (v -. expected) <= 1e-9 *. Float.max 1.0 (Float.abs expected))

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0 ] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "median" 3.0 (Stats.percentile xs ~p:50.0);
  check_float "p100" 5.0 (Stats.percentile xs ~p:100.0);
  check_float "p0 is the minimum" 1.0 (Stats.percentile xs ~p:0.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p outside [0,100]") (fun () ->
      ignore (Stats.percentile xs ~p:100.5))

let nonempty_floats =
  QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-1e6) 1e6))

let prop_percentile_p0_min =
  QCheck.Test.make ~name:"percentile p=0 is the minimum" ~count:300
    nonempty_floats
    (fun xs -> Stats.percentile xs ~p:0.0 = fst (Stats.min_max xs))

let prop_percentile_p100_max =
  QCheck.Test.make ~name:"percentile p=100 is the maximum" ~count:300
    nonempty_floats
    (fun xs -> Stats.percentile xs ~p:100.0 = snd (Stats.min_max xs))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(triple nonempty_floats (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs ~p:lo <= Stats.percentile xs ~p:hi)

let test_stats_f1 () =
  check_float "perfect" 1.0 (Stats.f1 ~precision:1.0 ~recall:1.0);
  check_float "zero" 0.0 (Stats.f1 ~precision:0.0 ~recall:0.0);
  check_float "harmonic" (2.0 *. 0.5 *. 1.0 /. 1.5)
    (Stats.f1 ~precision:0.5 ~recall:1.0)

let test_stats_precision_recall () =
  let p, r = Stats.precision_recall ~true_pos:8 ~false_pos:2 ~false_neg:0 in
  check_float "precision" 0.8 p;
  check_float "recall" 1.0 r;
  let p0, r0 = Stats.precision_recall ~true_pos:0 ~false_pos:0 ~false_neg:0 in
  check_float "degenerate precision" 0.0 p0;
  check_float "degenerate recall" 0.0 r0

(* For any confusion counts — including all-zero and single-sample
   populations — precision, recall and F1 stay finite and inside [0,1],
   and F1 collapses to 0 exactly when there are no true positives. *)
let prop_confusion_counts_bounded =
  QCheck.Test.make ~name:"precision/recall/f1 bounded on any counts"
    ~count:500
    QCheck.(triple (int_range 0 50) (int_range 0 50) (int_range 0 50))
    (fun (tp, fp, fn) ->
      let p, r = Stats.precision_recall ~true_pos:tp ~false_pos:fp ~false_neg:fn in
      let f = Stats.f1 ~precision:p ~recall:r in
      let in_unit x = (not (Float.is_nan x)) && x >= 0.0 && x <= 1.0 in
      in_unit p && in_unit r && in_unit f
      && (tp > 0 || f = 0.0)
      && (not (tp > 0 && fp = 0 && fn = 0) || f = 1.0))

(* stddev is total: 0 on empty and single-sample populations, 0 on
   constant lists, and never NaN. *)
let prop_stddev_total =
  QCheck.Test.make ~name:"stddev total and non-negative" ~count:500
    QCheck.(list (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.stddev xs in
      (not (Float.is_nan s))
      && s >= 0.0
      && (List.length xs >= 2 || s = 0.0))

let prop_stddev_constant =
  QCheck.Test.make ~name:"stddev of a constant population is 0" ~count:200
    QCheck.(pair (float_range (-1e6) 1e6) (int_range 1 20))
    (fun (x, n) -> Stats.stddev (List.init n (fun _ -> x)) = 0.0)

let test_kendall () =
  Alcotest.(check int) "identical" 0
    (Stats.kendall_tau_distance [ 1; 2; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check int) "one swap" 1
    (Stats.kendall_tau_distance [ 1; 2; 3 ] [ 1; 3; 2 ]);
  Alcotest.(check int) "full reversal" 3
    (Stats.kendall_tau_distance [ 1; 2; 3 ] [ 3; 2; 1 ])

let test_ordering_accuracy () =
  check_float "identical" 100.0 (Stats.ordering_accuracy [ 1; 2; 3 ] [ 1; 2; 3 ]);
  check_float "paper example" (100.0 *. (1.0 -. (1.0 /. 3.0)))
    (Stats.ordering_accuracy [ 1; 2; 3 ] [ 1; 3; 2 ]);
  check_float "no common pairs" 100.0 (Stats.ordering_accuracy [ 1 ] [ 2 ])

let prop_ordering_accuracy_bounds =
  QCheck.Test.make ~name:"ordering accuracy within [0,100]" ~count:300
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let v = Stats.ordering_accuracy a b in
      v >= 0.0 && v <= 100.0)

(* --- tablefmt ----------------------------------------------------------- *)

let test_tablefmt_renders () =
  let t = Tablefmt.create ~headers:[ "a"; "bb" ] in
  Tablefmt.add_row t [ "1"; "2" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "333"; "4" ];
  let out = Tablefmt.render t in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0
    && String.length (List.hd (String.split_on_char '\n' out)) > 0);
  Alcotest.(check bool) "right-aligns" true
    (String.length out > 10)

let test_tablefmt_arity_checked () =
  let t = Tablefmt.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Tablefmt.add_row: arity mismatch") (fun () ->
      Tablefmt.add_row t [ "only-one" ])

let test_tablefmt_formats () =
  Alcotest.(check string) "us" "154.3" (Tablefmt.fmt_us 154.31);
  Alcotest.(check string) "pct" "0.97" (Tablefmt.fmt_pct 0.9701);
  Alcotest.(check string) "factor" "4.6x" (Tablefmt.fmt_x 4.6)

(* --- dynbuf ------------------------------------------------------------- *)

module Dynbuf = Snorlax_util.Dynbuf
module Pool = Snorlax_util.Pool

let test_dynbuf_basic () =
  let b = Dynbuf.create () in
  Alcotest.(check int) "empty" 0 (Dynbuf.length b);
  Alcotest.(check (array int)) "empty to_array" [||] (Dynbuf.to_array b);
  for i = 0 to 99 do
    Dynbuf.push b (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dynbuf.length b);
  Alcotest.(check int) "get" (42 * 42) (Dynbuf.get b 42);
  Alcotest.(check (array int)) "to_array in push order"
    (Array.init 100 (fun i -> i * i))
    (Dynbuf.to_array b);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Dynbuf.get")
    (fun () -> ignore (Dynbuf.get b 100));
  Alcotest.check_raises "get negative" (Invalid_argument "Dynbuf.get")
    (fun () -> ignore (Dynbuf.get b (-1)))

let test_dynbuf_iter () =
  let b = Dynbuf.create () in
  List.iter (Dynbuf.push b) [ 3; 1; 4; 1; 5 ];
  let seen = ref [] in
  Dynbuf.iter (fun x -> seen := x :: !seen) b;
  Alcotest.(check (list int)) "iter order" [ 3; 1; 4; 1; 5 ] (List.rev !seen);
  let indexed = ref [] in
  Dynbuf.iteri (fun i x -> indexed := (i, x) :: !indexed) b;
  Alcotest.(check (list (pair int int)))
    "iteri order"
    [ (0, 3); (1, 1); (2, 4); (3, 1); (4, 5) ]
    (List.rev !indexed)

let test_dynbuf_clear_reuses () =
  let b = Dynbuf.create () in
  for i = 0 to 40 do
    Dynbuf.push b i
  done;
  Dynbuf.clear b;
  Alcotest.(check int) "empty after clear" 0 (Dynbuf.length b);
  Dynbuf.push b 7;
  Alcotest.(check (array int)) "refilled" [| 7 |] (Dynbuf.to_array b)

let prop_dynbuf_matches_list =
  QCheck.Test.make ~name:"Dynbuf.to_array equals the pushed list" ~count:300
    QCheck.(list int)
    (fun xs ->
      let b = Dynbuf.create () in
      List.iter (Dynbuf.push b) xs;
      Dynbuf.to_array b = Array.of_list xs
      && Dynbuf.length b = List.length xs)

(* --- pool --------------------------------------------------------------- *)

(* The determinism contract: map output must be identical to a sequential
   run for every pool size, including sizes above the item count. *)
let test_pool_map_matches_sequential () =
  let input = Array.init 57 (fun i -> i) in
  let f _ x = (x * 2) + 1 in
  let expected = Array.mapi f input in
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected (Pool.map p f input);
      Pool.shutdown p)
    [ 1; 2; 4; 64 ]

let test_pool_run_covers_all_indices () =
  let p = Pool.create ~jobs:4 in
  let hits = Array.make 100 0 in
  (* Slots are disjoint per index, so unsynchronized writes are safe. *)
  Pool.run p 100 (fun i -> hits.(i) <- hits.(i) + 1);
  Pool.shutdown p;
  Alcotest.(check (array int)) "each index exactly once" (Array.make 100 1) hits

let test_pool_empty_batch () =
  let p = Pool.create ~jobs:2 in
  Pool.run p 0 (fun _ -> Alcotest.fail "batch of 0 must not call f");
  Alcotest.(check (array int)) "empty map" [||] (Pool.map p (fun _ x -> x) [||]);
  Pool.shutdown p

let test_pool_propagates_exception () =
  (* Fail fast: the first exception cancels the unclaimed rest of the
     batch.  Inline (jobs=1) the claim order is the index order, so the
     cut-off is exact: nothing after the poisoned item runs. *)
  let p = Pool.create ~jobs:1 in
  let completed = Atomic.make 0 in
  let raised =
    match
      Pool.run p 10 (fun i ->
          if i = 3 then failwith "boom" else Atomic.incr completed)
    with
    | () -> false
    | exception Failure msg -> msg = "boom"
  in
  Pool.shutdown p;
  Alcotest.(check bool) "re-raises" true raised;
  Alcotest.(check int) "stops at the poisoned item" 3 (Atomic.get completed)

let test_pool_cancels_rest_on_failure () =
  (* One poisoned trace must fail the batch fast, not after the pool has
     chewed through everything behind it.  Item 0 fails immediately;
     items already claimed by other domains may still finish, but the
     bulk of the batch must be cancelled, never run. *)
  let n = 10_000 in
  let p = Pool.create ~jobs:3 in
  let completed = Atomic.make 0 in
  let raised =
    match
      Pool.run p n (fun i ->
          if i = 0 then failwith "poison" else Atomic.incr completed)
    with
    | () -> false
    | exception Failure msg -> msg = "poison"
  in
  Pool.shutdown p;
  Alcotest.(check bool) "re-raises" true raised;
  Alcotest.(check bool)
    "most of the batch never ran" true
    (Atomic.get completed < n / 2)

let test_pool_get_jobs1_is_sequential () =
  (* Regression: [get ~jobs:1] used to reuse any existing bigger shared
     pool, silently running "sequential" decode paths (including the
     benchmark's sequential baseline) in parallel.  A jobs:1 request must
     run every item on the submitting domain. *)
  let (_ : Pool.t) = Pool.get ~jobs:4 in
  let p = Pool.get ~jobs:1 in
  Alcotest.(check int) "jobs honored" 1 (Pool.jobs p);
  let self = Domain.self () in
  let elsewhere = Atomic.make 0 in
  Pool.run p 32 (fun _ ->
      if not (Domain.self () = self) then Atomic.incr elsewhere);
  Alcotest.(check int) "all items on the submitting domain" 0
    (Atomic.get elsewhere)

let test_pool_reusable_after_batch () =
  let p = Pool.create ~jobs:3 in
  let a = Pool.map p (fun _ x -> x + 1) (Array.init 20 (fun i -> i)) in
  let b = Pool.map p (fun _ x -> x * 3) (Array.init 31 (fun i -> i)) in
  Pool.shutdown p;
  Alcotest.(check (array int)) "first batch" (Array.init 20 (fun i -> i + 1)) a;
  Alcotest.(check (array int)) "second batch" (Array.init 31 (fun i -> i * 3)) b

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Pool.shutdown p;
  (* A stopped pool still runs batches, inline. *)
  Alcotest.(check (array int))
    "inline after shutdown"
    [| 0; 2; 4 |]
    (Pool.map p (fun _ x -> 2 * x) [| 0; 1; 2 |])

let test_pool_default_jobs_clamped () =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.default_jobs ());
  Pool.set_default_jobs 6;
  Alcotest.(check int) "set" 6 (Pool.default_jobs ());
  Pool.set_default_jobs saved

let test_pool_with_pool_scoped () =
  (* The scoped helper: returns the body's value, and its pool is torn
     down (runs inline afterwards) whether the body returns or raises. *)
  let escaped = ref None in
  let v =
    Pool.with_pool ~jobs:3 (fun p ->
        escaped := Some p;
        Array.fold_left ( + ) 0 (Pool.map p (fun _ x -> x) (Array.init 10 Fun.id)))
  in
  Alcotest.(check int) "returns the body's value" 45 v;
  (match !escaped with
  | Some p ->
    (* Shut down means inline: batches still run, on this domain. *)
    Alcotest.(check (array int))
      "torn down (inline) after exit"
      [| 0; 2; 4 |]
      (Pool.map p (fun _ x -> 2 * x) [| 0; 1; 2 |])
  | None -> Alcotest.fail "body never ran");
  let raised =
    match Pool.with_pool ~jobs:2 (fun _ -> failwith "scoped") with
    | (_ : int) -> false
    | exception Failure msg -> msg = "scoped"
  in
  Alcotest.(check bool) "exception propagates" true raised

let test_pool_with_pool_avoids_shared_slot () =
  (* Regression for the sweep-isolation audit: a scoped pool must never
     become (or resize) the process-wide shared pool, and [get ~jobs:1]
     must hand back the dedicated inline pool without assigning the
     shared slot — the inline pool is eager and reused, not recreated. *)
  let shared_before = Pool.get ~jobs:3 in
  Pool.with_pool ~jobs:5 (fun p ->
      Alcotest.(check bool) "scoped pool is private" true
        (p != shared_before));
  Alcotest.(check bool)
    "shared slot untouched by with_pool" true
    (Pool.get ~jobs:2 == shared_before);
  let i1 = Pool.get ~jobs:1 in
  let i2 = Pool.get ~jobs:1 in
  Alcotest.(check bool) "inline pool is the same eager one" true (i1 == i2);
  Alcotest.(check int) "inline pool is sequential" 1 (Pool.jobs i1);
  Alcotest.(check bool)
    "jobs:1 did not leak into the shared slot" true
    (Pool.get ~jobs:2 == shared_before)

let test_pool_with_default_jobs_scoped () =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 4;
  let inner =
    Pool.with_default_jobs 2 (fun () ->
        let a = Pool.default_jobs () in
        let b = Pool.with_default_jobs 1 (fun () -> Pool.default_jobs ()) in
        let c = Pool.default_jobs () in
        (a, b, c))
  in
  Alcotest.(check (triple int int int)) "nested scoping" (2, 1, 2) inner;
  Alcotest.(check int) "restored" 4 (Pool.default_jobs ());
  (match Pool.with_default_jobs 1 (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "restored after raise" 4 (Pool.default_jobs ());
  (* The override is domain-local: a domain spawned inside the scope
     sees the process default, not the caller's pin. *)
  let seen_elsewhere =
    Pool.with_default_jobs 2 (fun () ->
        Domain.join (Domain.spawn (fun () -> Pool.default_jobs ())))
  in
  Alcotest.(check int) "override does not cross domains" 4 seen_elsewhere;
  Pool.set_default_jobs saved

let prop_pool_map_deterministic =
  QCheck.Test.make ~name:"Pool.map equals Array.mapi for any size" ~count:25
    QCheck.(pair (int_range 1 5) (list small_int))
    (fun (jobs, xs) ->
      let input = Array.of_list xs in
      let f i x = (i * 31) + x in
      let p = Pool.create ~jobs in
      let out = Pool.map p f input in
      Pool.shutdown p;
      out = Array.mapi f input)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
        Alcotest.test_case "split" `Quick test_prng_split;
        Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
        Alcotest.test_case "uniform buckets" `Quick test_prng_uniformity;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        Alcotest.test_case "pick member" `Quick test_prng_pick_member;
        qtest prop_int_in_bounds;
        qtest prop_in_range;
        qtest prop_float_in_bounds;
      ] );
    ( "util.ringbuf",
      [
        Alcotest.test_case "basic" `Quick test_ringbuf_basic;
        Alcotest.test_case "wrap keeps newest" `Quick test_ringbuf_wrap;
        Alcotest.test_case "clear" `Quick test_ringbuf_clear;
        qtest prop_ringbuf_suffix;
        qtest prop_ringbuf_model;
        Alcotest.test_case "content-sized storage" `Quick
          test_ringbuf_content_sized;
        Alcotest.test_case "snapshot allocates only its result" `Quick
          test_ringbuf_snapshot_allocation;
      ] );
    ( "util.varint",
      [
        Alcotest.test_case "negative rejected" `Quick test_varint_negative_rejected;
        Alcotest.test_case "boundary round-trips" `Quick
          test_varint_boundary_values;
        Alcotest.test_case "encoded_size at boundaries" `Quick
          test_varint_size_boundaries;
        Alcotest.test_case "try_read on truncated input" `Quick
          test_varint_try_read_truncated;
        qtest prop_varint_roundtrip;
        qtest prop_varint_signed_roundtrip;
        qtest prop_varint_size;
        qtest prop_varint_try_read_matches;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "geomean skips non-positive samples" `Quick
          test_stats_geomean_nonpositive;
        Alcotest.test_case "min/max" `Quick test_stats_min_max;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "f1" `Quick test_stats_f1;
        Alcotest.test_case "precision/recall" `Quick test_stats_precision_recall;
        Alcotest.test_case "kendall tau" `Quick test_kendall;
        Alcotest.test_case "ordering accuracy" `Quick test_ordering_accuracy;
        qtest prop_geomean_total;
        qtest prop_ordering_accuracy_bounds;
        qtest prop_percentile_p0_min;
        qtest prop_percentile_p100_max;
        qtest prop_percentile_monotone;
        qtest prop_confusion_counts_bounded;
        qtest prop_stddev_total;
        qtest prop_stddev_constant;
      ] );
    ( "util.tablefmt",
      [
        Alcotest.test_case "renders" `Quick test_tablefmt_renders;
        Alcotest.test_case "arity checked" `Quick test_tablefmt_arity_checked;
        Alcotest.test_case "formats" `Quick test_tablefmt_formats;
      ] );
    ( "util.dynbuf",
      [
        Alcotest.test_case "push/get/to_array" `Quick test_dynbuf_basic;
        Alcotest.test_case "iter/iteri order" `Quick test_dynbuf_iter;
        Alcotest.test_case "clear reuses storage" `Quick test_dynbuf_clear_reuses;
        qtest prop_dynbuf_matches_list;
      ] );
    ( "util.pool",
      [
        Alcotest.test_case "map matches sequential" `Quick
          test_pool_map_matches_sequential;
        Alcotest.test_case "run covers all indices" `Quick
          test_pool_run_covers_all_indices;
        Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
        Alcotest.test_case "exception propagates, fail fast" `Quick
          test_pool_propagates_exception;
        Alcotest.test_case "failure cancels the unclaimed rest" `Quick
          test_pool_cancels_rest_on_failure;
        Alcotest.test_case "get ~jobs:1 is sequential" `Quick
          test_pool_get_jobs1_is_sequential;
        Alcotest.test_case "reusable across batches" `Quick
          test_pool_reusable_after_batch;
        Alcotest.test_case "shutdown idempotent, then inline" `Quick
          test_pool_shutdown_idempotent;
        Alcotest.test_case "default jobs clamped" `Quick
          test_pool_default_jobs_clamped;
        Alcotest.test_case "with_pool scoped teardown" `Quick
          test_pool_with_pool_scoped;
        Alcotest.test_case "with_pool never touches the shared slot" `Quick
          test_pool_with_pool_avoids_shared_slot;
        Alcotest.test_case "with_default_jobs domain-local scoping" `Quick
          test_pool_with_default_jobs_scoped;
        qtest prop_pool_map_deterministic;
      ] );
  ]
