(* A measured metric as the benchmark prints it: name, value, unit, and
   the raw-sample count it rests on (with, for a percentile, how many
   samples lie beyond it).

   A timing's value is normalised to the host's speed: each unit's value
   is scaled by [Yardstick.factor] over the unit's window before the
   median over units is taken.  The plain wall-clock figure is kept
   beside it as [wall]. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** the samples behind the value *)
  wall : float option;  (** the same statistic, not normalised *)
  units : float list;  (** the per-unit values a median was taken over *)
  raw_units : float list;  (** the same, not normalised *)
  windows : (float * float) list;  (** each unit's wall-clock window *)
}

let plain (name, value, unit_) =
  { name; value; unit_; note = ""; wall = None; units = []; raw_units = []; windows = [] }

let per_unit ~scale ~div name unit_ samples p note =
  let norm = List.map (fun v -> v /. div) (Samples.unit_values ~scale samples p) in
  let raw = List.map (fun v -> v /. div) (Samples.unit_values samples p) in
  {
    name;
    value = Samples.pct norm 50.;
    unit_;
    note;
    wall = Some (Samples.pct raw 50.);
    units = norm;
    raw_units = raw;
    windows = Samples.windows samples;
  }

(* A timing percentile (samples in ns): each unit's, median over units. *)
let timing ?(unit_ = "ms") name samples p =
  per_unit ~scale:Yardstick.factor
    ~div:(if unit_ = "s" then 1e9 else 1e6)
    name unit_ samples p
    (Printf.sprintf "median of %d units' p%g; n=%d, %d beyond" (Samples.units samples) p
       (Samples.count samples) (Samples.beyond samples p))

(* A throughput: [rates] holds each unit's operations per second of its
   wall time; [ops] in [ns] is the whole run's. *)
let rate name rates ~ops ~ns =
  per_unit
    ~scale:(fun ~from ~until -> 1. /. Yardstick.factor ~from ~until)
    ~div:1. name "1/s" rates 50.
    (Printf.sprintf "median of %d units; %d in %.3f s" (Samples.units rates) ops (ns /. 1e9))

let line m =
  Printf.sprintf "  %-36s %16.6f %-6s%s%s" m.name m.value m.unit_
    (match m.wall with None -> "" | Some w -> Printf.sprintf "  wall %.6f" w)
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

let floats l = Obs.Json.List (List.map (fun v -> Obs.Json.Float v) l)

let json m =
  Obs.Json.Obj
    ([ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ]
    @ (match m.wall with None -> [] | Some w -> [ ("wall", Obs.Json.Float w) ])
    @ (if m.note = "" then [] else [ ("samples", Obs.Json.String m.note) ])
    @
    if m.units = [] then []
    else
      [
        ("units", floats m.units);
        ("raw_units", floats m.raw_units);
        ("windows", Obs.Json.List (List.map (fun (a, b) -> floats [ a; b ]) m.windows));
      ])

(* Only value and unit go on the result line, the one a harness parses. *)
let result_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obs.Json.Obj
                      [
                        ("value", Obs.Json.Float m.value);
                        ("unit", Obs.Json.String m.unit_);
                      ] ))
                metrics) );
       ])
