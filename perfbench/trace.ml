(* The benchmark's span recording.  Spans are taken from benchmark code
   around each call into a layer's public functions — the program itself
   is not instrumented — into a private [Obs.Span] collector, kept in
   memory and written out when the run ends.  Nothing is recorded outside
   [recorded]; there each span costs two clock reads and a few
   allocations.  A span's [req] arg names the report, incident or bug it
   serves; a batch span (a traffic tick, a shard round) lists the
   requests it carried in [reqs], so one report can be followed from tick
   to router to round. *)

let now = Obs.Span.wall_clock_ns

(* Set while a span's stamps are given rather than read: the stage spans
   [Diagnosis.diagnose] returns, and a span closed at an earlier time. *)
let pinned = ref Float.nan
let clock () = if Float.is_nan !pinned then now () else !pinned

type t = {
  mutable spans : Obs.Span.t;
  mutable on : bool;
  mutable scope : Obs.Scope.ctx;  (** the program's telemetry while recorded *)
  mutable cache : Pt.Decode_cache.stats;  (** shared decode-cache traffic while recorded *)
  candidates : (string, int) Hashtbl.t;  (** stage funnel counts summed per layer *)
}

let no_traffic = { Pt.Decode_cache.hits = 0; misses = 0; evictions = 0; entries = 0 }

let st =
  {
    spans = Obs.Span.create ~clock ();
    on = false;
    scope = Obs.Scope.make ();
    cache = no_traffic;
    candidates = Hashtbl.create 8;
  }

(* Per span name: count, total time, and self time (see [compute]),
   recomputed only when a span was started since. *)
type totals = { n : int; total_ns : float; self_ns : float }

let started = ref 0
let memo = ref (-1, Hashtbl.create 1)

let reset () =
  started := 0;
  memo := (-1, Hashtbl.create 1);
  st.spans <- Obs.Span.create ~clock ();
  st.scope <- Obs.Scope.make ();
  st.cache <- no_traffic;
  Hashtbl.reset st.candidates

let enabled () = st.on
let scope () = st.scope
let cache_traffic () = st.cache

(* [sign] times the shared decode cache's traffic over [f] into [cache]. *)
let count_cache sign f =
  let c0 = Pt.Decode_cache.stats Pt.Decode_cache.shared in
  Fun.protect f ~finally:(fun () ->
      let c1 = Pt.Decode_cache.stats Pt.Decode_cache.shared in
      let d a b = sign * (a - b) in
      st.cache <-
        {
          st.cache with
          hits = st.cache.hits + d c1.hits c0.hits;
          misses = st.cache.misses + d c1.misses c0.misses;
          evictions = st.cache.evictions + d c1.evictions c0.evictions;
        })

let switch on f =
  let was = st.on in
  st.on <- on;
  Fun.protect f ~finally:(fun () -> st.on <- was)

(* Run [f] on the record: spans, the program's telemetry into [scope],
   and its decode-cache traffic. *)
let recorded f =
  switch true (fun () -> count_cache 1 (fun () -> Obs.Scope.using st.scope f))

(* Run [f] — a correctness check between measured units — off the
   record: no spans, program telemetry into a throwaway scope, and its
   decode-cache traffic taken back out. *)
let quiet f =
  if not st.on then f ()
  else
    switch false (fun () ->
        count_cache (-1) (fun () -> Obs.Scope.using (Obs.Scope.make ()) f))

let req_arg = function None -> [] | Some r -> [ ("req", Obs.Span.Int r) ]

let start ?req name =
  if st.on then begin
    incr started;
    Some (Obs.Span.start st.spans ~args:(req_arg req) name)
  end
  else None

(* [at]: close the span at a time read earlier. *)
let finish ?at = function
  | None -> ()
  | Some sp ->
    Option.iter (fun t -> pinned := t) at;
    Fun.protect (fun () -> Obs.Span.finish st.spans sp) ~finally:(fun () ->
        pinned := Float.nan)

let with_ ?req name f =
  if st.on then begin
    incr started;
    Obs.Span.with_span st.spans ~args:(req_arg req) name (fun _ -> f ())
  end
  else f ()

let set_reqs sp ids =
  Option.iter
    (fun sp ->
      Obs.Span.set_arg sp "reqs"
        (Obs.Span.Str (String.concat "," (List.map string_of_int ids))))
    sp

(* Stage names of [Diagnosis.diagnose], mapped onto the layer that owns
   the work. *)
let stage_layer = function
  | "diagnosis/layout" -> Some "core.layout"
  | "diagnosis/trace_processing" -> Some "core.trace_processing"
  | "diagnosis/points_to" -> Some "analysis.pointsto"
  | "diagnosis/anchor" -> Some "core.anchor"
  | "diagnosis/type_ranking" -> Some "core.type_ranking"
  | "diagnosis/patterns" -> Some "core.patterns"
  | "diagnosis/statistics" -> Some "core.statistics"
  | _ -> None

(* Copy the seven stage spans [Diagnosis.diagnose] returns under the
   benchmark's own span around the call, which must still be open. *)
let import_stages ?req (stages : Obs.Span.span list) =
  if st.on then
    List.iter
      (fun (s : Obs.Span.span) ->
        match stage_layer s.Obs.Span.name with
        | None -> ()
        | Some name ->
          pinned := s.Obs.Span.start_ns;
          let sp = start ?req name in
          finish ~at:s.Obs.Span.end_ns sp;
          match Obs.Span.find_arg s "candidates" with
          | Some (Obs.Span.Int n) ->
            Hashtbl.replace st.candidates name
              (n + Option.value ~default:0 (Hashtbl.find_opt st.candidates name))
          | _ -> ())
      stages

let candidates name = Option.value ~default:0 (Hashtbl.find_opt st.candidates name)
let spans () = Obs.Span.spans st.spans

(* A span's self time is its duration minus the part its direct children
   cover.  Self times summed over every name equal the root spans' total,
   so wall time minus that sum is time no span covers. *)
let compute () =
  let all = spans () in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Span.span) ->
      Option.iter
        (fun p ->
          Hashtbl.replace children p
            (Obs.Span.duration_ns s
            +. Option.value ~default:0. (Hashtbl.find_opt children p)))
        s.Obs.Span.parent)
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let d = Obs.Span.duration_ns s in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt children s.Obs.Span.id) in
      let t =
        Option.value ~default:{ n = 0; total_ns = 0.; self_ns = 0. }
          (Hashtbl.find_opt by_name s.Obs.Span.name)
      in
      Hashtbl.replace by_name s.Obs.Span.name
        { n = t.n + 1; total_ns = t.total_ns +. d; self_ns = t.self_ns +. self })
    all;
  by_name

let totals () =
  if fst !memo <> !started then memo := (!started, compute ());
  snd !memo

let find name =
  Option.value ~default:{ n = 0; total_ns = 0.; self_ns = 0. }
    (Hashtbl.find_opt (totals ()) name)

let count name = (find name).n
let total_ns name = (find name).total_ns

let to_json () = Obs.Chrome_trace.export st.spans
