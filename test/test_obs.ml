(* The observability layer: instruments, domain-safe registry merging,
   both exporters, golden-trace regressions over four fixed circuits,
   and the jobs-independence of aggregate counters. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel

let sweeping = Cec.Sweeping Sweep.default_config

(* --- a minimal JSON validity checker (no dependencies) --- *)

module Json = struct
  exception Bad of string

  (* Recursive-descent RFC 8259 validator over the whole input;
     trailing whitespace (the exporters end with a newline) is the only
     thing allowed after the top-level value. *)
  let validate s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      match peek () with
      | Some c ->
        incr pos;
        c
      | None -> raise (Bad "unexpected end of input")
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      let got = next () in
      if got <> c then raise (Bad (Printf.sprintf "expected %c at %d, got %c" c (!pos - 1) got))
    in
    let string_ () =
      expect '"';
      let rec go () =
        match next () with
        | '"' -> ()
        | '\\' -> (
          match next () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> go ()
          | 'u' ->
            for _ = 1 to 4 do
              match next () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
              | _ -> raise (Bad "bad \\u escape")
            done;
            go ()
          | _ -> raise (Bad "bad escape"))
        | c when Char.code c < 0x20 -> raise (Bad "raw control character in string")
        | _ -> go ()
      in
      go ()
    in
    let number () =
      (match peek () with Some '-' -> incr pos | _ -> ());
      let digits () =
        let saw = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
            saw := true;
            incr pos;
            go ()
          | _ -> ()
        in
        go ();
        if not !saw then raise (Bad "expected digits")
      in
      digits ();
      (match peek () with
      | Some '.' ->
        incr pos;
        digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
      | _ -> ()
    in
    let literal w = String.iter expect w in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        incr pos;
        skip_ws ();
        (match peek () with
        | Some '}' -> incr pos
        | _ ->
          let rec members () =
            skip_ws ();
            string_ ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match next () with
            | ',' -> members ()
            | '}' -> ()
            | _ -> raise (Bad "expected , or } in object")
          in
          members ())
      | Some '[' ->
        incr pos;
        skip_ws ();
        (match peek () with
        | Some ']' -> incr pos
        | _ ->
          let rec elements () =
            value ();
            skip_ws ();
            match next () with
            | ',' -> elements ()
            | ']' -> ()
            | _ -> raise (Bad "expected , or ] in array")
          in
          elements ())
      | Some '"' -> string_ ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | Some c -> raise (Bad (Printf.sprintf "unexpected %c" c))
      | None -> raise (Bad "unexpected end of input")
    in
    value ();
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at offset %d" !pos))

  let is_valid s = match validate s with () -> true | exception Bad _ -> false

  let check_valid label s =
    match validate s with
    | () -> ()
    | exception Bad msg -> Alcotest.failf "%s: invalid JSON (%s) in %s" label msg s
end

let test_json_checker_self_test () =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "valid: %s" s) true (Json.is_valid s))
    [
      "{}"; "[]"; "null"; "true"; "-12.5e+3"; "\"a\\\"b\\u00ff\"";
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"\"}\n"; " [ 1 , 2 ] ";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "invalid: %s" s) false (Json.is_valid s))
    [
      ""; "{"; "}"; "1 2"; "{\"a\":}"; "{\"a\":1,}"; "[1,]"; "nul"; "+1"; "01x";
      "\"\\x\""; "\"unterminated";
    ]

(* --- instruments --- *)

let test_counter_basics () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "c" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.get c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.get c);
  Alcotest.(check bool) "find-or-create returns the same handle" true
    (c == Obs.Registry.counter reg "c")

let test_gauge_basics () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "g" in
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 1.0;
  Alcotest.(check (float 1e-9)) "set + add" 3.5 (Obs.Gauge.get g);
  Obs.Gauge.set g 1.0;
  Alcotest.(check (float 1e-9)) "set overwrites" 1.0 (Obs.Gauge.get g)

let test_histogram_basics () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~bounds:[| 1.0; 10.0 |] reg "h" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 5.0; 100.0 ];
  Alcotest.(check (array (float 1e-9))) "bounds" [| 1.0; 10.0 |] (Obs.Histogram.bounds h);
  (* Bucket i counts observations <= bounds.(i); the last bucket is the
     overflow: 0.5 and 1.0 land in bucket 0, 5.0 in bucket 1, 100.0
     overflows. *)
  Alcotest.(check (array int)) "buckets" [| 2; 1; 1 |] (Obs.Histogram.buckets h);
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 106.5 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Obs.Histogram.max_value h);
  (* Same name, same bounds: same handle.  Same name, other bounds:
     rejected rather than silently rebucketed. *)
  Alcotest.(check bool) "same handle" true (h == Obs.Registry.histogram reg "h");
  Alcotest.(check bool) "same handle with explicit bounds" true
    (h == Obs.Registry.histogram ~bounds:[| 1.0; 10.0 |] reg "h");
  match Obs.Registry.histogram ~bounds:[| 2.0 |] reg "h" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conflicting bounds accepted"

let test_default_bounds_strictly_increasing () =
  let b = Obs.Histogram.default_bounds in
  Alcotest.(check bool) "non-empty" true (Array.length b > 0);
  for i = 1 to Array.length b - 1 do
    Alcotest.(check bool) "strictly increasing" true (b.(i - 1) < b.(i))
  done

let test_merge_semantics () =
  let a = Obs.Registry.create () and b = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter a "n") 3;
  Obs.Counter.add (Obs.Registry.counter b "n") 4;
  Obs.Counter.add (Obs.Registry.counter b "only-b") 1;
  Obs.Gauge.set (Obs.Registry.gauge a "g") 7.0;
  Obs.Gauge.set (Obs.Registry.gauge b "g") 5.0;
  Obs.Histogram.observe (Obs.Registry.histogram a "h") 1.0;
  Obs.Histogram.observe (Obs.Registry.histogram b "h") 2.0;
  Obs.Registry.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 7 (Obs.Counter.get (Obs.Registry.counter a "n"));
  Alcotest.(check int) "missing counters appear" 1
    (Obs.Counter.get (Obs.Registry.counter a "only-b"));
  Alcotest.(check (float 1e-9)) "gauges keep the max" 7.0
    (Obs.Gauge.get (Obs.Registry.gauge a "g"));
  Alcotest.(check int) "histograms add bucket-wise" 2
    (Obs.Histogram.count (Obs.Registry.histogram a "h"));
  (* The source is unchanged. *)
  Alcotest.(check int) "src counter untouched" 4 (Obs.Counter.get (Obs.Registry.counter b "n"))

(* --- exporters --- *)

let populated_registry () =
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg "z.last") 2;
  Obs.Counter.add (Obs.Registry.counter reg "a.first") 1;
  Obs.Gauge.set (Obs.Registry.gauge reg "needs \"escaping\"\n") 0.5;
  Obs.Histogram.observe (Obs.Registry.histogram reg "lat") 3.0;
  Obs.Span.with_ reg "outer" (fun () -> Obs.Span.with_ reg "inner" (fun () -> ()));
  reg

let test_exports_are_valid_json () =
  let reg = populated_registry () in
  Json.check_valid "stats_json" (Obs.Export.stats_json reg);
  Json.check_valid "counters_json" (Obs.Export.counters_json reg);
  Json.check_valid "trace_json" (Obs.Export.trace_json reg);
  (* An empty registry still exports valid JSON. *)
  let empty = Obs.Registry.create () in
  Json.check_valid "empty stats_json" (Obs.Export.stats_json empty);
  Json.check_valid "empty counters_json" (Obs.Export.counters_json empty);
  Json.check_valid "empty trace_json" (Obs.Export.trace_json empty)

let test_counters_json_sorted_and_stable () =
  let reg = populated_registry () in
  Alcotest.(check string) "sorted keys, exact bytes" "{\"a.first\":1,\"z.last\":2}"
    (Obs.Export.counters_json reg);
  (* Same content built in another insertion order: identical bytes. *)
  let reg' = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg' "a.first") 1;
  Obs.Counter.add (Obs.Registry.counter reg' "z.last") 2;
  Alcotest.(check string) "insertion order is invisible" (Obs.Export.counters_json reg)
    (Obs.Export.counters_json reg')

(* The chronological "ph" sequence of a trace export. *)
let ph_sequence trace =
  let out = ref [] in
  let n = String.length trace in
  for i = 0 to n - 8 do
    match String.sub trace i 8 with
    | "\"ph\":\"B\"" -> out := 'B' :: !out
    | "\"ph\":\"E\"" -> out := 'E' :: !out
    | _ -> ()
  done;
  List.rev !out

let check_well_parenthesized label trace =
  let depth = ref 0 in
  List.iter
    (fun ph ->
      (match ph with 'B' -> incr depth | _ -> decr depth);
      if !depth < 0 then Alcotest.failf "%s: end before begin" label)
    (ph_sequence trace);
  Alcotest.(check int) (label ^ ": all spans closed") 0 !depth

let test_trace_export_shape () =
  let reg = Obs.Registry.create () in
  (* The end event is recorded even when the body raises. *)
  (try Obs.Span.with_ reg "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Obs.Span.with_ reg "outer" (fun () ->
      Obs.Span.with_ reg "inner" (fun () -> ());
      Obs.Span.with_ reg "inner" (fun () -> ()));
  Alcotest.(check int) "4 spans = 8 events" 8 (Obs.Span.num_events reg);
  let trace = Obs.Export.trace_json reg in
  Json.check_valid "trace" trace;
  Alcotest.(check (list char)) "chronological, nested"
    [ 'B'; 'E'; 'B'; 'B'; 'E'; 'B'; 'E'; 'E' ] (ph_sequence trace);
  check_well_parenthesized "trace" trace

(* --- golden traces: four fixed circuits, exact counters --- *)

(* These pin the aggregate counters of a sequential [Cec.check] run.
   They are intentionally brittle: any change to the solver heuristics,
   the sweeping schedule or the proof builders shows up here as a
   reviewed diff instead of a silent drift. *)

let golden_counters engine golden revised =
  let reg = Obs.Registry.create () in
  let (_ : Cec.report) = Obs.with_ambient reg (fun () -> Cec.check engine golden revised) in
  (reg, Obs.Registry.counters reg)

let check_golden ?(engine = sweeping) name expected golden revised =
  let reg, actual = golden_counters engine golden revised in
  Alcotest.(check (list (pair string int))) name expected actual;
  (* Both exporters stay schema-valid on the real registry. *)
  Json.check_valid (name ^ " stats") (Obs.Export.stats_json reg);
  Json.check_valid (name ^ " trace") (Obs.Export.trace_json reg)

let suite_case name =
  match Circuits.Suite.find name with
  | Some c -> c
  | None -> Alcotest.failf "suite case %s missing" name

let test_golden_adder () =
  let case = suite_case "add4-rc-cla" in
  check_golden "ripple-carry vs carry-lookahead"
    [
      ("proof.chains", 65);
      ("proof.leaves", 1678);
      ("proof.lift_nodes", 155);
      ("proof.lifts", 17);
      ("sat.clauses_carried", 0);
      ("sat.conflicts", 21);
      ("sat.decisions", 30);
      ("sat.propagations", 155);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 7);
      ("sweep.incremental_reuse", 0);
      ("sweep.lemmas", 17);
      ("sweep.merges", 5);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 18);
      ("sweep.sat_cex", 0);
      ("sweep.sat_refuted", 18);
      ("sweep.sim_refinements", 0);
    ]
    (case.Circuits.Suite.golden ())
    (case.Circuits.Suite.revised ())

let test_golden_rewritten_datapath () =
  let case = suite_case "mux5-rewr" in
  check_golden "mux tree vs rewritten mux tree"
    [
      ("proof.chains", 577);
      ("proof.leaves", 23697);
      ("proof.lift_nodes", 1343);
      ("proof.lifts", 199);
      ("sat.clauses_carried", 0);
      ("sat.conflicts", 199);
      ("sat.decisions", 0);
      ("sat.propagations", 1007);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 5);
      ("sweep.incremental_reuse", 0);
      ("sweep.lemmas", 199);
      ("sweep.merges", 97);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 200);
      ("sweep.sat_cex", 0);
      ("sweep.sat_refuted", 200);
      ("sweep.sim_refinements", 0);
    ]
    (case.Circuits.Suite.golden ())
    (case.Circuits.Suite.revised ())

let test_golden_constant_zero_miter () =
  (* A circuit against itself: simulation classes collapse every miter
     output to the constant; one final SAT call, no conflicts. *)
  let g () = Circuits.Adder.ripple_carry 4 in
  check_golden "self-miter is constant 0"
    [
      ("proof.chains", 2);
      ("proof.leaves", 97);
      ("sat.clauses_carried", 0);
      ("sat.conflicts", 0);
      ("sat.decisions", 0);
      ("sat.propagations", 0);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 0);
      ("sweep.incremental_reuse", 0);
      ("sweep.lemmas", 0);
      ("sweep.merges", 0);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 1);
      ("sweep.sat_cex", 0);
      ("sweep.sat_refuted", 1);
      ("sweep.sim_refinements", 0);
    ]
    (g ()) (g ())

let test_golden_incremental_adder () =
  (* Same fixture as [test_golden_adder], incremental mode: no lifts or
     imports at all (the solver's proof store is the certificate), far
     fewer leaves, three queries settled from root-level facts instead
     of SAT calls, and learned clauses carried across calls. *)
  let case = suite_case "add4-rc-cla" in
  let reg = Obs.Registry.create () in
  let (_ : Cec.report) =
    Obs.with_ambient reg (fun () ->
        Cec.check
          (Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental })
          (case.Circuits.Suite.golden ())
          (case.Circuits.Suite.revised ()))
  in
  Alcotest.(check (list (pair string int)))
    "incremental adder pair"
    [
      ("proof.chains", 23);
      ("proof.leaves", 128);
      ("sat.clauses_carried", 96);
      ("sat.conflicts", 14);
      ("sat.decisions", 4);
      ("sat.propagations", 140);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 7);
      ("sweep.incremental_reuse", 3);
      ("sweep.lemmas", 17);
      ("sweep.merges", 5);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 15);
      ("sweep.sat_cex", 0);
      ("sweep.sat_refuted", 15);
      ("sweep.sim_refinements", 0);
    ]
    (Obs.Registry.counters reg)

let test_golden_falsifiable () =
  let golden = Circuits.Adder.ripple_carry 3 in
  let revised = Circuits.Adder.ripple_carry 3 in
  Aig.set_output revised 0 (Aig.Lit.neg (Aig.output revised 0));
  check_golden "negated output is refuted"
    [
      ("proof.chains", 0);
      ("proof.leaves", 67);
      ("sat.clauses_carried", 0);
      ("sat.conflicts", 0);
      ("sat.decisions", 5);
      ("sat.propagations", 29);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 0);
      ("sweep.incremental_reuse", 0);
      ("sweep.lemmas", 0);
      ("sweep.merges", 0);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 1);
      ("sweep.sat_cex", 1);
      ("sweep.sat_refuted", 0);
      ("sweep.sim_refinements", 0);
    ]
    golden revised

(* A fixture whose sweep meets two counterexamples and whose per-pair
   queries decide mostly on variables outside their cone (every miter
   node is a solver variable and sits in the decision heap), so these
   pin the SAT answers and the decision order, not only refutations. *)
let test_golden_counterexample_sweep () =
  let case = suite_case "add8-rc-cla" in
  check_golden "per-pair sweep with counterexamples"
    [
      ("proof.chains", 291);
      ("proof.leaves", 12069);
      ("proof.lift_nodes", 872);
      ("proof.lifts", 66);
      ("sat.clauses_carried", 0);
      ("sat.conflicts", 98);
      ("sat.decisions", 727);
      ("sat.propagations", 1960);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 23);
      ("sweep.incremental_reuse", 0);
      ("sweep.lemmas", 65);
      ("sweep.merges", 21);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 69);
      ("sweep.sat_cex", 2);
      ("sweep.sat_refuted", 67);
      ("sweep.sim_refinements", 2);
    ]
    ~engine:(Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Perpair })
    (case.Circuits.Suite.golden ())
    (case.Circuits.Suite.revised ())

let test_golden_incremental_counterexample_sweep () =
  let case = suite_case "add8-rc-cla" in
  check_golden "incremental sweep with counterexamples"
    [
      ("proof.chains", 90);
      ("proof.leaves", 452);
      ("sat.clauses_carried", 1851);
      ("sat.conflicts", 57);
      ("sat.decisions", 209);
      ("sat.propagations", 1430);
      ("sat.restarts", 0);
      ("sat.retired_chains", 0);
      ("sweep.const_merges", 23);
      ("sweep.incremental_reuse", 11);
      ("sweep.lemmas", 65);
      ("sweep.merges", 21);
      ("sweep.sat_budget", 0);
      ("sweep.sat_calls", 58);
      ("sweep.sat_cex", 2);
      ("sweep.sat_refuted", 56);
      ("sweep.sim_refinements", 2);
    ]
    ~engine:(Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental })
    (case.Circuits.Suite.golden ())
    (case.Circuits.Suite.revised ())

(* --- determinism across worker counts --- *)

let counters_with_domains ?(mode = Sweep.Perpair) n =
  let case = suite_case "add4-rc-cla" in
  let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
  let reg = Obs.Registry.create () in
  let report =
    Obs.with_ambient reg (fun () ->
        Parallel.check
          ~config:
            {
              Parallel.default_config with
              Parallel.num_domains = n;
              engine = Cec.Sweeping { Sweep.default_config with Sweep.mode };
            }
          golden revised)
  in
  (match report.Parallel.verdict with
  | Cec.Equivalent _ -> ()
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.fail "suite case did not prove equivalent");
  Obs.Export.counters_json reg

let test_jobs_independence () =
  let c1 = counters_with_domains 1 in
  let c4 = counters_with_domains 4 in
  let c4' = counters_with_domains 4 in
  Alcotest.(check string) "1 domain = 4 domains" c1 c4;
  Alcotest.(check string) "4 domains repeatable" c4 c4'

let test_incremental_jobs_independence () =
  (* One persistent solver per partition: partitions are independent,
     so the aggregate counters still cannot depend on how partitions
     are spread over domains. *)
  let c1 = counters_with_domains ~mode:Sweep.Incremental 1 in
  let c4 = counters_with_domains ~mode:Sweep.Incremental 4 in
  let c4' = counters_with_domains ~mode:Sweep.Incremental 4 in
  Alcotest.(check string) "1 domain = 4 domains (incr)" c1 c4;
  Alcotest.(check string) "4 domains repeatable (incr)" c4 c4'

let test_incremental_fewer_sat_calls () =
  (* The headline effect on the multiplier fixture: root-level fact
     reuse settles some queries without search, so the incremental
     engine issues strictly fewer SAT calls than per-pair. *)
  let case = suite_case "mul3-arr-sa" in
  let counters mode =
    let reg = Obs.Registry.create () in
    let (_ : Cec.report) =
      Obs.with_ambient reg (fun () ->
          Cec.check
            (Cec.Sweeping { Sweep.default_config with Sweep.mode })
            (case.Circuits.Suite.golden ())
            (case.Circuits.Suite.revised ()))
    in
    Obs.Registry.counters reg
  in
  let count name cs = try List.assoc name cs with Not_found -> 0 in
  let perpair = counters Sweep.Perpair and incr = counters Sweep.Incremental in
  let calls_pp = count "sweep.sat_calls" perpair and calls_incr = count "sweep.sat_calls" incr in
  if calls_incr >= calls_pp then
    Alcotest.failf "expected fewer SAT calls: incr=%d perpair=%d" calls_incr calls_pp;
  Alcotest.(check bool) "reuse counter fired" true (count "sweep.incremental_reuse" incr > 0);
  Alcotest.(check int) "reuse accounts for the gap" calls_pp
    (calls_incr + count "sweep.incremental_reuse" incr);
  Alcotest.(check bool) "clauses carried across queries" true
    (count "sat.clauses_carried" incr > 0)

(* --- certificate-checker counters (the check.* family) --- *)

let hinted_cert name =
  let case = suite_case name in
  match
    (Cec.check sweeping (case.Circuits.Suite.golden ()) (case.Circuits.Suite.revised ()))
      .Cec.verdict
  with
  | Cec.Equivalent cert -> cert
  | Cec.Inequivalent _ | Cec.Undecided -> Alcotest.failf "suite case %s not proven" name

(* A small shard floor so the fixed fixtures actually split; the
   production default of 256 nodes would coalesce them into one. *)
let check_registry ?(jobs = 1) (cert : Cec.certificate) =
  let data =
    Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries ~min_shard_nodes:16 cert.Cec.proof
      ~root:cert.Cec.root
  in
  let reg = Obs.Registry.create () in
  (match
     Obs.with_ambient reg (fun () -> Proof.Hint_check.check ~formula:cert.Cec.formula ~jobs data)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hinted checker rejected: %a" Proof.Hint_check.pp_error e);
  reg

let check_golden_counters name expected fixture =
  let reg = check_registry (hinted_cert fixture) in
  Alcotest.(check (list (pair string int))) name expected (Obs.Registry.counters reg);
  Json.check_valid (name ^ " stats") (Obs.Export.stats_json reg);
  Json.check_valid (name ^ " trace") (Obs.Export.trace_json reg)

let test_golden_check_adder () =
  check_golden_counters "checker counters on add4-rc-cla"
    [
      ("check.chains", 22);
      ("check.checks", 1);
      ("check.hints_followed", 105);
      ("check.shards", 5);
      ("check.steps", 105);
    ]
    "add4-rc-cla"

let test_golden_check_multiplier () =
  check_golden_counters "checker counters on mul3-arr-sa"
    [
      ("check.chains", 105);
      ("check.checks", 1);
      ("check.hints_followed", 1674);
      ("check.shards", 14);
      ("check.steps", 1674);
    ]
    "mul3-arr-sa"

let test_check_jobs_independence () =
  (* Shards are checked with no early abort and counters are summed
     over shards, so the aggregate check metrics cannot depend on how
     shards are spread over domains. *)
  let cert = hinted_cert "mul3-arr-sa" in
  let snapshot jobs =
    let reg = check_registry ~jobs cert in
    (Obs.Export.counters_json reg, Obs.Gauge.get (Obs.Registry.gauge reg "check.peak_live"))
  in
  let c1, p1 = snapshot 1 in
  let c4, p4 = snapshot 4 in
  let c4', p4' = snapshot 4 in
  Alcotest.(check string) "1 job = 4 jobs" c1 c4;
  Alcotest.(check string) "4 jobs repeatable" c4 c4';
  Alcotest.(check (float 0.0)) "peak gauge: 1 job = 4 jobs" p1 p4;
  Alcotest.(check (float 0.0)) "peak gauge repeatable" p4 p4'

(* --- qcheck properties --- *)

(* A registry population as data, so merges can be replayed onto fresh
   registries: merge_into mutates its target. *)
type op =
  | Incr of int
  | Add of int * int
  | Gauge_set of int * float
  | Observe of int * float

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Incr i) (int_bound 4);
        map2 (fun i n -> Add (i, n)) (int_bound 4) (int_bound 1000);
        map2 (fun i v -> Gauge_set (i, v)) (int_bound 4) (float_bound_inclusive 1000.0);
        map2 (fun i v -> Observe (i, v)) (int_bound 4) (float_bound_inclusive 200_000.0);
      ])

let pp_op = function
  | Incr i -> Printf.sprintf "Incr %d" i
  | Add (i, n) -> Printf.sprintf "Add (%d, %d)" i n
  | Gauge_set (i, v) -> Printf.sprintf "Gauge_set (%d, %g)" i v
  | Observe (i, v) -> Printf.sprintf "Observe (%d, %g)" i v

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_bound 30) op_gen)

let replay ops =
  let reg = Obs.Registry.create () in
  List.iter
    (fun op ->
      match op with
      | Incr i -> Obs.Counter.incr (Obs.Registry.counter reg (Printf.sprintf "c%d" i))
      | Add (i, n) -> Obs.Counter.add (Obs.Registry.counter reg (Printf.sprintf "c%d" i)) n
      | Gauge_set (i, v) -> Obs.Gauge.set (Obs.Registry.gauge reg (Printf.sprintf "g%d" i)) v
      | Observe (i, v) ->
        Obs.Histogram.observe (Obs.Registry.histogram reg (Printf.sprintf "h%d" i)) v)
    ops;
  reg

(* stats_json covers counters, gauges and histograms and is the
   equality surface for the merge algebra (span events are excluded:
   their concatenation is ordered by construction). *)
let stats reg = Obs.Export.stats_json reg

let prop_merge_associative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"merge is associative" ~count:100
       QCheck.(triple ops_arb ops_arb ops_arb)
       (fun (la, lb, lc) ->
         let left = replay la in
         Obs.Registry.merge_into ~into:left (replay lb);
         Obs.Registry.merge_into ~into:left (replay lc);
         let bc = replay lb in
         Obs.Registry.merge_into ~into:bc (replay lc);
         let right = replay la in
         Obs.Registry.merge_into ~into:right bc;
         stats left = stats right))

let prop_merge_commutative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"merge is commutative" ~count:100
       QCheck.(pair ops_arb ops_arb)
       (fun (la, lb) ->
         let x = Obs.Registry.create () in
         Obs.Registry.merge_into ~into:x (replay la);
         Obs.Registry.merge_into ~into:x (replay lb);
         let y = Obs.Registry.create () in
         Obs.Registry.merge_into ~into:y (replay lb);
         Obs.Registry.merge_into ~into:y (replay la);
         stats x = stats y))

let prop_merge_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"empty registry is the merge identity" ~count:100 ops_arb
       (fun ops ->
         let r = replay ops in
         let before = stats r in
         Obs.Registry.merge_into ~into:r (Obs.Registry.create ());
         let e = Obs.Registry.create () in
         Obs.Registry.merge_into ~into:e (replay ops);
         stats r = before && stats e = before))

let prop_histogram_totals =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"histogram count and sum match the observations" ~count:200
       (QCheck.make
          ~print:QCheck.Print.(list float)
          QCheck.Gen.(list_size (int_range 1 50) (float_bound_inclusive 200_000.0)))
       (fun xs ->
         let reg = Obs.Registry.create () in
         let h = Obs.Registry.histogram reg "h" in
         List.iter (Obs.Histogram.observe h) xs;
         Obs.Histogram.count h = List.length xs
         && Array.fold_left ( + ) 0 (Obs.Histogram.buckets h) = List.length xs
         && Float.abs (Obs.Histogram.sum h -. List.fold_left ( +. ) 0.0 xs) <= 1e-6
         && Obs.Histogram.max_value h = List.fold_left Float.max neg_infinity xs))

(* The service engine counts its own escalation rounds and never runs
   the partitioned engine. *)
let test_engine_rounds_counted () =
  let case = List.hd Circuits.Suite.small in
  let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
  let solve config =
    let reg = Obs.Registry.create () in
    let (_ : Service.Engine.result) =
      Obs.with_ambient reg (fun () -> Service.Engine.solve config golden revised)
    in
    Obs.Registry.counters reg
  in
  let rounds counters = Option.value (List.assoc_opt "engine.rounds" counters) ~default:0 in
  let clean = solve Service.Engine.default_config in
  Alcotest.(check int) "clean pair: one round" 1 (rounds clean);
  List.iter
    (fun (name, _) ->
      if String.starts_with ~prefix:"parallel." name then
        Alcotest.failf "service solve recorded %s" name)
    clean;
  let blown =
    Fault.with_spec (Fault.always "engine.budget") (fun () ->
        solve { Service.Engine.default_config with Service.Engine.max_rounds = 3 })
  in
  Alcotest.(check int) "budget blowouts: every round" 3 (rounds blown)

let prop_spans_well_parenthesized =
  (* Random span trees: the Chrome export of a single-domain registry
     is always a balanced B/E sequence, even when bodies raise. *)
  let arb =
    QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_bound 12) (int_bound 5))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"span events are well-parenthesized" ~count:100 arb (fun shape ->
         let reg = Obs.Registry.create () in
         let rec run = function
           | [] -> ()
           | n :: rest ->
             (try
                Obs.Span.with_ reg (Printf.sprintf "s%d" n) (fun () ->
                    run (if n mod 2 = 0 then rest else []);
                    if n = 3 then failwith "span body raises")
              with Failure _ -> ());
             if n mod 2 <> 0 then run rest
         in
         run shape;
         let trace = Obs.Export.trace_json reg in
         let seq = ph_sequence trace in
         let ok = ref true in
         let depth = ref 0 in
         List.iter
           (fun ph ->
             (match ph with 'B' -> incr depth | _ -> decr depth);
             if !depth < 0 then ok := false)
           seq;
         !ok && !depth = 0
         && List.length seq = Obs.Span.num_events reg
         && Json.is_valid trace))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "json checker self-test" `Quick test_json_checker_self_test;
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
        Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
        Alcotest.test_case "default bounds strictly increasing" `Quick
          test_default_bounds_strictly_increasing;
        Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
        Alcotest.test_case "exports are valid JSON" `Quick test_exports_are_valid_json;
        Alcotest.test_case "counters_json sorted and stable" `Quick
          test_counters_json_sorted_and_stable;
        Alcotest.test_case "trace export shape" `Quick test_trace_export_shape;
        Alcotest.test_case "engine rounds counted" `Quick test_engine_rounds_counted;
        prop_merge_associative;
        prop_merge_commutative;
        prop_merge_identity;
        prop_histogram_totals;
        prop_spans_well_parenthesized;
      ] );
    ( "obs-golden",
      [
        Alcotest.test_case "adder pair" `Quick test_golden_adder;
        Alcotest.test_case "rewritten datapath" `Quick test_golden_rewritten_datapath;
        Alcotest.test_case "constant-0 miter" `Quick test_golden_constant_zero_miter;
        Alcotest.test_case "incremental adder pair" `Quick test_golden_incremental_adder;
        Alcotest.test_case "falsifiable pair" `Quick test_golden_falsifiable;
        Alcotest.test_case "counterexample sweep" `Quick test_golden_counterexample_sweep;
        Alcotest.test_case "incremental counterexample sweep" `Quick
          test_golden_incremental_counterexample_sweep;
        Alcotest.test_case "aggregate counters independent of domains" `Quick
          test_jobs_independence;
        Alcotest.test_case "incremental counters independent of domains" `Quick
          test_incremental_jobs_independence;
        Alcotest.test_case "incremental drops below per-pair SAT calls" `Quick
          test_incremental_fewer_sat_calls;
        Alcotest.test_case "checker counters: adder pair" `Quick test_golden_check_adder;
        Alcotest.test_case "checker counters: multiplier pair" `Quick
          test_golden_check_multiplier;
        Alcotest.test_case "check metrics independent of jobs" `Quick
          test_check_jobs_independence;
      ] );
  ]
