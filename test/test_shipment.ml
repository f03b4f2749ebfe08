(* The endpoint model: how a reproduced scenario becomes wire packets.
   The one-shot fleet's endpoints ([Fleet.Endpoint.run]) and the streaming
   traffic generator ([Stream.Traffic.tick]) both ship packets built by
   it, so their exact bytes are pinned here by digest — any change to
   the envelope, the seed scheme, failing-first order, the endpoint-death
   prefix cut or round-robin arrival shows up as a digest mismatch. *)

module Traffic = Stream.Traffic

let add_packet buf p =
  Buffer.add_string buf (string_of_int (Bytes.length p));
  Buffer.add_char buf ':';
  Buffer.add_bytes buf p;
  Buffer.add_char buf '\n'

(* --- Fleet.Endpoint.run --------------------------------------------------- *)

let endpoint_text () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let buf = Buffer.create 4096 in
  for endpoint = 0 to 2 do
    let s = Fleet.Endpoint.run ~bug ~endpoint in
    Printf.bprintf buf "endpoint %d runs=%d reproduced=%b packets=%d\n"
      s.Fleet.Endpoint.endpoint s.Fleet.Endpoint.runs
      s.Fleet.Endpoint.reproduced
      (List.length s.Fleet.Endpoint.packets);
    List.iter (add_packet buf) s.Fleet.Endpoint.packets
  done;
  Buffer.contents buf

let endpoint_digest = "a45c75a156a18fb5102621f242461b07"

let test_endpoint_golden () =
  Alcotest.(check string) "Endpoint.run packet digest" endpoint_digest
    (Digest.to_hex (Digest.string (endpoint_text ())))

(* --- Stream.Traffic.tick -------------------------------------------------- *)

let baselines =
  lazy
    (Traffic.prepare ~jobs:1
       (List.map Corpus.Registry.find_exn [ "pbzip2-1"; "aget-1" ]))

let traffic_text ~churn ?fault () =
  let t =
    Traffic.create ~seed:42 ~endpoints:6 ~churn ?fault
      ~baselines:(Lazy.force baselines) []
  in
  let buf = Buffer.create 65536 in
  for _ = 1 to Traffic.diurnal_period do
    let b = Traffic.tick t in
    Printf.bprintf buf
      "tick %d offered=%d incidents=%d joins=%d leaves=%d crashes=%d \
       load=%h burst=%b\n"
      b.Traffic.tick b.Traffic.offered b.Traffic.incidents b.Traffic.joins
      b.Traffic.leaves b.Traffic.crashes b.Traffic.load b.Traffic.burst;
    List.iter (add_packet buf) b.Traffic.packets
  done;
  Printf.bprintf buf "alive=%d faults=%d\n" (Traffic.alive t)
    (Traffic.faults t);
  Buffer.contents buf

let traffic_cases =
  [
    ("no churn", false, None, "e98af4e892698aaef559e9999e8b0a4b");
    ("churn", true, None, "085d33abf532c89860697591262ce6ee");
    ( "wire-bitflip",
      false,
      Some Chaos.Fault.Wire_bitflip,
      "f7176b4ba6348940cb5b0e9d13be9653" );
    ( "ring-truncate",
      false,
      Some Chaos.Fault.Ring_truncate,
      "abfc4133e82358d4c6662f3799a8b64a" );
    ( "endpoint-death",
      false,
      Some Chaos.Fault.Endpoint_death,
      "68c87908d39d15bb878bb194baa3a7ea" );
    ( "clock-skew",
      true,
      Some Chaos.Fault.Clock_skew,
      "283661c229cceaf69d82557e9845a060" );
  ]

let test_traffic_golden () =
  List.iter
    (fun (name, churn, fault, digest) ->
      Alcotest.(check string) ("Traffic.tick digest, " ^ name) digest
        (Digest.to_hex (Digest.string (traffic_text ~churn ?fault ()))))
    traffic_cases

(* --- Fleet.Endpoint.interleave ------------------------------------------- *)

(* Arrival interleaving may only reorder across shipments: every packet
   arrives exactly once and each endpoint's packets keep their order. *)
let prop_interleave_preserves_shipments =
  QCheck.Test.make ~name:"interleave keeps the multiset and shipment order"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 8) (list_of_size Gen.(0 -- 6) small_nat))
    (fun shipments ->
      let tagged =
        List.mapi (fun e s -> List.map (fun p -> (e, p)) s) shipments
      in
      let arrival = Fleet.Endpoint.interleave tagged in
      List.sort compare arrival = List.sort compare (List.concat tagged)
      && List.for_all
           (fun s ->
             match s with
             | [] -> true
             | (e, _) :: _ -> List.filter (fun (e', _) -> e' = e) arrival = s)
           tagged)

let tests =
  [
    ( "fleet.shipment",
      [
        Alcotest.test_case "golden Endpoint.run packets" `Quick
          test_endpoint_golden;
        Alcotest.test_case "golden Traffic.tick batches" `Quick
          test_traffic_golden;
        QCheck_alcotest.to_alcotest prop_interleave_preserves_shipments;
      ] );
  ]
