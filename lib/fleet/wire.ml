module Report = Snorlax_core.Report
module Varint = Snorlax_util.Varint

type payload =
  | Failing of Report.failing_report
  | Success of Report.success_report

type provenance = {
  runs : int;
  sync_ops : int;
  sync_digest : int;
}

type envelope = {
  endpoint : int;
  seed : int;
  bug_id : string;
  config : Pt.Config.t;
  prov : provenance option;
  payload : payload;
}

let version = 2

(* --- encoding ----------------------------------------------------------- *)

(* Tags and lengths are unsigned varints (structurally non-negative);
   report field values are zig-zag signed so encoding is total whatever
   the simulator put in the record. *)

let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let uw = Varint.write_unsigned
let sw = Varint.write_signed

let strw buf s =
  uw buf (String.length s);
  Buffer.add_string buf s

let tracesw buf traces =
  uw buf (List.length traces);
  List.iter
    (fun (tid, b) ->
      sw buf tid;
      uw buf (Bytes.length b);
      Buffer.add_bytes buf b)
    traces

let crash_kind_tag = function
  | Report.Bad_pointer -> 0
  | Report.Use_after_free -> 1
  | Report.Assertion -> 2

let encode e =
  let buf = Buffer.create 256 in
  u8 buf version;
  uw buf e.endpoint;
  sw buf e.seed;
  strw buf e.bug_id;
  uw buf e.config.Pt.Config.buffer_size;
  let tag, period = Pt.Config.timing_code e.config.Pt.Config.timing in
  uw buf tag;
  uw buf period;
  uw buf e.config.Pt.Config.psb_period_bytes;
  (* Provenance values are zig-zag signed like every other report field,
     so encoding stays total. *)
  (match e.prov with
  | None -> u8 buf 0
  | Some p ->
    u8 buf 1;
    sw buf p.runs;
    sw buf p.sync_ops;
    sw buf p.sync_digest);
  (match e.payload with
  | Failing r ->
    u8 buf 0;
    (match r.Report.info with
    | Report.Crash_info { failing_iid; crash_kind } ->
      uw buf 0;
      sw buf failing_iid;
      uw buf (crash_kind_tag crash_kind)
    | Report.Deadlock_info { blocked } ->
      uw buf 1;
      uw buf (List.length blocked);
      List.iter
        (fun (tid, iid) ->
          sw buf tid;
          sw buf iid)
        blocked);
    sw buf r.Report.failing_tid;
    sw buf r.Report.failure_time_ns;
    tracesw buf r.Report.traces
  | Success r ->
    u8 buf 1;
    sw buf r.Report.trigger_time_ns;
    sw buf r.Report.trigger_tid;
    sw buf r.Report.trigger_pc;
    tracesw buf r.Report.s_traces);
  Buffer.to_bytes buf

(* --- decoding ----------------------------------------------------------- *)

exception Corrupt of string

type cursor = { buf : bytes; mutable pos : int }

let corrupt msg = raise (Corrupt msg)

let read_u8 c =
  if c.pos >= Bytes.length c.buf then corrupt "truncated";
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let read_uint c =
  match Varint.try_read_unsigned c.buf ~pos:c.pos with
  | None -> corrupt "truncated varint"
  | Some (v, next) ->
    c.pos <- next;
    v

let read_sint c =
  match Varint.try_read_signed c.buf ~pos:c.pos with
  | None -> corrupt "truncated varint"
  | Some (v, next) ->
    c.pos <- next;
    v

(* [n > length - pos] rather than [pos + n > length]: the length field of
   corrupt input can be near [max_int], and the addition must not wrap. *)
let read_raw c n =
  if n < 0 || n > Bytes.length c.buf - c.pos then corrupt "truncated bytes";
  let b = Bytes.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  b

let read_str c = Bytes.to_string (read_raw c (read_uint c))

let read_list c read_elt =
  let n = read_uint c in
  if n < 0 then corrupt "negative count";
  List.init n (fun _ -> read_elt c)

let read_traces c =
  read_list c (fun c ->
      let tid = read_sint c in
      let len = read_uint c in
      (tid, read_raw c len))

let read_crash_kind c =
  match read_uint c with
  | 0 -> Report.Bad_pointer
  | 1 -> Report.Use_after_free
  | 2 -> Report.Assertion
  | n -> corrupt (Printf.sprintf "unknown crash kind %d" n)

let read_info c =
  match read_uint c with
  | 0 ->
    let failing_iid = read_sint c in
    let crash_kind = read_crash_kind c in
    Report.Crash_info { failing_iid; crash_kind }
  | 1 ->
    let blocked =
      read_list c (fun c ->
          let tid = read_sint c in
          let iid = read_sint c in
          (tid, iid))
    in
    Report.Deadlock_info { blocked }
  | n -> corrupt (Printf.sprintf "unknown failure info tag %d" n)

let read_config c =
  let buffer_size = read_uint c in
  let tag = read_uint c in
  let period = read_uint c in
  let psb_period_bytes = read_uint c in
  match Pt.Config.timing_of_code ~tag ~period with
  | None -> corrupt (Printf.sprintf "unknown timing mode %d/%d" tag period)
  | Some timing ->
    {
      Pt.Config.buffer_size;
      timing;
      psb_period_bytes;
      costs = Pt.Config.default_costs;
    }

let read_payload c =
  match read_u8 c with
  | 0 ->
    let info = read_info c in
    let failing_tid = read_sint c in
    let failure_time_ns = read_sint c in
    let traces = read_traces c in
    Failing { Report.info; failing_tid; failure_time_ns; traces }
  | 1 ->
    let trigger_time_ns = read_sint c in
    let trigger_tid = read_sint c in
    let trigger_pc = read_sint c in
    let s_traces = read_traces c in
    Success { Report.s_traces; trigger_time_ns; trigger_tid; trigger_pc }
  | n -> corrupt (Printf.sprintf "unknown payload tag %d" n)

let read_prov c =
  match read_u8 c with
  | 0 -> None
  | 1 ->
    let runs = read_sint c in
    let sync_ops = read_sint c in
    let sync_digest = read_sint c in
    Some { runs; sync_ops; sync_digest }
  | n -> corrupt (Printf.sprintf "unknown provenance tag %d" n)

let decode b =
  let c = { buf = b; pos = 0 } in
  match
    let v = read_u8 c in
    if v <> version then
      corrupt (Printf.sprintf "version %d (expected %d)" v version);
    let endpoint = read_uint c in
    let seed = read_sint c in
    let bug_id = read_str c in
    let config = read_config c in
    let prov = read_prov c in
    let payload = read_payload c in
    if c.pos <> Bytes.length b then corrupt "trailing garbage";
    { endpoint; seed; bug_id; config; prov; payload }
  with
  | e -> Ok e
  | exception Corrupt msg -> Error msg
  | exception e -> Error (Printexc.to_string e)
