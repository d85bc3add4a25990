(* What the workloads share: the result record, repeated set-up, latency
   percentiles and the per-layer metric list. *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Report.metric list;
  summary : Report.metric list;  (** printed before the result line, not in it *)
  notes : string list;
}

(* A timed pass is [rounds] rounds of the same composition, one after
   the other; [ops_per_s] is the median round's rate, so a stretch of
   host contention that spans part of a run moves it less. *)
let rounds = 5

(* [(ops, seconds)] per round. *)
let ops_per_s times =
  ("ops_per_s", Report.median (List.map (fun (n, t) -> float_of_int n /. t) times), "1/s")

(* Consecutive chunks of equal length. *)
let split n a =
  let len = Array.length a / n in
  Array.init n (fun i -> Array.sub a (i * len) len)

(* Set-up runs [runs] times in fresh directories; [setup_s] is the
   median, and the last set-up is the one measured.  Earlier set-ups
   stay on disk until the run ends: deleting thousands of files makes
   the file system slow for a while after. *)
let repeated_setup ~runs ~dir ~teardown setup =
  let times = ref [] in
  let rec go k =
    let sub = Filename.concat dir (Printf.sprintf "setup%d" k) in
    let t0 = Clock.now () in
    let state = setup sub in
    times := (Clock.now () -. t0) :: !times;
    if k + 1 < runs then begin
      teardown ();
      go (k + 1)
    end
    else state
  in
  let state = go 0 in
  (state, Report.median !times)

let latency_metrics ms =
  [ ("op_p50_ms", Report.percentile 0.5 ms, "ms"); ("op_p90_ms", Report.percentile 0.9 ms, "ms") ]

(* A traced run times two rounds untraced and two traced, and replays
   the traced ones. *)
let traced_rounds = 2

(* Traced against untraced time per op; each side is [(ops, seconds)]. *)
let overhead ~untraced:(n, t) ~traced:(n', t') =
  ("trace.overhead_frac", (t' /. float_of_int n' /. (t /. float_of_int n)) -. 1.)

(* Per-layer metrics in BENCHMARK.json order; a layer the workload does
   not exercise reports 0. *)
let per_layer_names =
  [
    ("cli.cec_s", "s"); ("cli.check_s", "s"); ("aig.parse_s", "s"); ("core.cec_s", "s");
    ("core.alloc_mw", "Mw"); ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.decisions", "count"); ("sweep.sat_calls", "count"); ("sweep.merges", "count");
    ("sweep.lemmas", "count"); ("proof.export_s", "s"); ("cnf.tseitin_s", "s");
    ("proof.parse_s", "s"); ("proof.check_s", "s"); ("proof.check_alloc_mw", "Mw");
    ("service.load_s", "s"); ("service.key_s", "s"); ("store.find_s", "s");
    ("proof.hint_check_s", "s"); ("check.steps", "count"); ("service.hit_s", "s");
    ("fleet.outside_s", "s"); ("fleet.forwarded", "count"); ("fleet.failovers", "count");
    ("fleet.forward_failures", "count"); ("service.engine_s", "s");
    ("parallel.partitions", "count"); ("parallel.rounds", "count"); ("service.solve_s", "s");
    ("store.write_s", "s"); ("proof.encode_s", "s"); ("store.hits", "count");
    ("store.misses", "count"); ("store.entries", "count"); ("store.bytes", "count");
    ("store.corrupt", "count"); ("store.write_failures", "count"); ("trace.overhead_frac", "1");
  ]

let per_layer values =
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name values) ~default:0., unit))
    per_layer_names

(* Span self time for each [name] as a [<name>_s] metric. *)
let span_metrics names =
  let self = Trace.self_times () in
  List.map (fun n -> (n ^ "_s", self n)) names

(* Sum of two counter lists by name. *)
let add_counters acc cs =
  List.fold_left
    (fun acc (name, v) ->
      (name, v + Option.value (List.assoc_opt name acc) ~default:0) :: List.remove_assoc name acc)
    acc cs

let count_failed oks = List.length (List.filter not oks)

