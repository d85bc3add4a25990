(* prove: ROADMAP path 1.  Per pair, one [cec_tool cec A B --proof P]
   process, then one [cec_tool check-proof M P] process against the
   miter that set-up wrote with [cec_tool miter]. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep

(* Ops per second of a pass on the reference host (2 vCPU): it turns
   [--seconds] into a number of pairs, so a pass lasts about that long
   and the same seed and length always give the same pairs. *)
let nominal_ops_per_s = 7.

(* Generated pairs: per round, blocks of eight strata, one per family
   (two adder sizes), at sizes where a stratum costs about the same
   whatever the seed; larger restructured adders and multipliers vary
   by tens of times between rewrites.  At least three blocks a round,
   so that with the 25 suite rows a pass has over 100 ops and ten
   above its p90. *)
let block =
  Gen.
    [
      (Adder, 8); (Prefix, 8); (Multiplier, 3); (Comparator, 16); (Alu, 4); (Shifter, 3);
      (Random_logic, 5); (Adder, 12);
    ]

let blocks_per_round ~seconds =
  let gen_ops = (seconds *. nominal_ops_per_s) -. 25. in
  max 3 (int_of_float (Float.round (gen_ops /. float_of_int (8 * Common.rounds))))

type op = {
  pair : Gen.pair;
  golden : string;
  revised : string;
  miter : string;
  proof : string;
  stats : string;
}

type outcome = {
  ok : bool;
  ms : float;
  rss_kb : int;
  cec_code : int;
  detail : string;
}

(* The suite rows dealt over the rounds largest first, in snake order,
   so the rounds carry about the same suite work. *)
let deal_suite () =
  let size (p : Gen.pair) = Aig.num_ands p.Gen.golden + Aig.num_ands p.Gen.revised in
  let rows = List.stable_sort (fun a b -> compare (size b) (size a)) (Gen.suite ()) in
  let r = Common.rounds in
  let hands = Array.make r [] in
  List.iteri
    (fun i p ->
      let k = if i / r mod 2 = 0 then i mod r else r - 1 - (i mod r) in
      hands.(k) <- p :: hands.(k))
    rows;
  Array.map (fun h -> Array.of_list (List.rev h)) hands

(* Per round: its suite rows and the same generated strata, shuffled. *)
let inputs ~seed ~seconds =
  let rng = Support.Rng.create seed in
  let strata =
    List.concat (List.init Common.rounds (fun _ -> Gen.blocks (blocks_per_round ~seconds) block))
  in
  let generated = Common.split Common.rounds (Array.of_list (Gen.generated rng strata)) in
  Array.map2 (fun suite gen -> Gen.shuffle rng (Array.append suite gen)) (deal_suite ()) generated

(* Inputs and miters under [dir], one array of ops per round; fails on
   any tool error. *)
let setup ~tool ~dir ~seed ~seconds =
  Unix.mkdir dir 0o755;
  Array.mapi
    (fun r pairs ->
      Array.mapi
        (fun k (golden, revised) ->
          let file ext = Filename.concat dir (Printf.sprintf "r%d-%03d.%s" r k ext) in
          let miter = file "miter.aag" in
          let ex, _ = Proc.run tool [ "miter"; golden; revised; "-o"; miter ] in
          if ex.Proc.code <> 0 then failwith ("cec_tool miter failed on " ^ pairs.(k).Gen.name);
          { pair = pairs.(k); golden; revised; miter; proof = file "trace"; stats = file "stats.json" })
        (Gen.write dir (Printf.sprintf "r%d-" r) pairs))
    (inputs ~seed ~seconds)

let parse_cex out =
  String.split_on_char '\n' out
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "counterexample:"; bits ] -> Some (Array.init (String.length bits) (fun i -> bits.[i] = '1'))
         | _ -> None)

(* The counterexample tells the two netlists apart. *)
let cex_valid (p : Gen.pair) cex =
  Array.length cex = Aig.num_inputs p.Gen.golden
  && Aig.eval p.Gen.golden cex <> Aig.eval p.Gen.revised cex

let span traced ~op name f = if traced then Trace.with_ ~op name f else f ()

(* One op: both processes and the check of their answers. *)
let run_op ~tool ~traced k op =
  let t0 = Clock.now () in
  let args =
    [ "cec"; op.golden; op.revised; "--proof"; op.proof ]
    @ if traced then [ "--stats-out"; op.stats ] else []
  in
  let cec, out = span traced ~op:k "cli.cec" (fun () -> Proc.run tool args) in
  let ok, rss_kb, detail =
    match (cec.Proc.code, op.pair.Gen.equivalent) with
    | 0, true ->
      let chk, chk_out =
        span traced ~op:k "cli.check" (fun () -> Proc.run tool [ "check-proof"; op.miter; op.proof ])
      in
      ( chk.Proc.code = 0 && String.starts_with ~prefix:"OK:" chk_out,
        max cec.Proc.maxrss_kb chk.Proc.maxrss_kb,
        Printf.sprintf "check-proof exit %d" chk.Proc.code )
    | 1, false ->
      let valid = match parse_cex out with Some cex -> cex_valid op.pair cex | None -> false in
      (valid, cec.Proc.maxrss_kb, "counterexample " ^ if valid then "valid" else "invalid")
    | code, _ -> (false, cec.Proc.maxrss_kb, Printf.sprintf "cec exit %d" code)
  in
  { ok; ms = 1000. *. (Clock.now () -. t0); rss_kb; cec_code = cec.Proc.code; detail }

(* The engine [cec_tool cec] builds from its own flag defaults. *)
let cli_engine =
  let base =
    {
      Sweep.default_config with
      Sweep.lemma_reuse = true;
      max_conflicts = None;
      mode = Sweep.Perpair;
    }
  in
  Option.get (Cec.engine_of_string ~base "sweep")

type replay = {
  core_alloc_mw : float;
  check_alloc_mw : float;
  counters : (string * int) list;
  mismatches : string list;
}

(* Replay [op] in-process through the library functions the two
   processes call, under spans; its counters and verdict must equal
   what [cec --stats-out] recorded. *)
let replay_op k op (outcome : outcome) acc =
  let sp name f = Trace.with_ ~op:k name f in
  sp "replay" @@ fun () ->
  let a, b = sp "aig.parse" (fun () -> (Aig.Aiger.read_file op.golden, Aig.Aiger.read_file op.revised)) in
  let reg = Obs.Registry.create () in
  let report, core_mw =
    sp "core.cec" (fun () -> Trace.alloc_mw (fun () -> Obs.with_ambient reg (fun () -> Cec.check cli_engine a b)))
  in
  let counters = Obs.Registry.counters reg in
  let recorded =
    match Fleet.Snapshot.counters (In_channel.with_open_bin op.stats In_channel.input_all) with
    | Ok cs -> cs
    | Error e -> failwith ("unreadable --stats-out: " ^ e)
  in
  let mismatches =
    (if counters <> recorded then [ Printf.sprintf "op %d (%s): counters differ from cec --stats-out" k op.pair.Gen.name ]
     else [])
    @
    match (report.Cec.verdict, outcome.cec_code) with
    | Cec.Equivalent _, 0 | Cec.Inequivalent _, 1 -> []
    | _ -> [ Printf.sprintf "op %d (%s): replay verdict differs from cec exit %d" k op.pair.Gen.name outcome.cec_code ]
  in
  let check_mw =
    match report.Cec.verdict with
    | Cec.Equivalent cert ->
      ignore
        (sp "proof.export" (fun () ->
             let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
             Proof.Export.trace_to_string trimmed ~root));
      let miter = sp "aig.parse" (fun () -> Aig.Aiger.read_file op.miter) in
      let formula = sp "cnf.tseitin" (fun () -> Cnf.Tseitin.miter_formula miter) in
      let text = In_channel.with_open_bin op.proof In_channel.input_all in
      let proof, root = sp "proof.parse" (fun () -> Proof.Export.trace_of_string text) in
      let result, mw =
        sp "proof.check" (fun () -> Trace.alloc_mw (fun () -> Proof.Checker.check proof ~root ~formula ()))
      in
      (match result with
      | Ok _ -> ()
      | Error _ -> failwith (Printf.sprintf "op %d (%s): replayed check rejected the proof" k op.pair.Gen.name));
      mw
    | Cec.Inequivalent _ | Cec.Undecided -> 0.
  in
  {
    core_alloc_mw = acc.core_alloc_mw +. core_mw;
    check_alloc_mw = acc.check_alloc_mw +. check_mw;
    counters = Common.add_counters acc.counters counters;
    mismatches = acc.mismatches @ mismatches;
  }

let replay ops outcomes =
  let acc = { core_alloc_mw = 0.; check_alloc_mw = 0.; counters = []; mismatches = [] } in
  let r = ref acc in
  Array.iteri (fun k op -> r := replay_op k op outcomes.(k) !r) ops;
  !r

let run ~tool ~dir ~seed ~seconds ~trace =
  let rounds, setup_s =
    Common.repeated_setup ~runs:5 ~dir ~teardown:ignore (fun sub -> setup ~tool ~dir:sub ~seed ~seconds)
  in
  (* Ops are numbered across the rounds for the spans. *)
  let pass ~traced rounds =
    let k = ref 0 in
    Array.map
      (fun ops ->
        let t0 = Clock.now () in
        let outcomes =
          Array.map
            (fun op ->
              let i = !k in
              incr k;
              run_op ~tool ~traced i op)
            ops
        in
        (outcomes, Clock.now () -. t0))
      rounds
  in
  let failures ops outcomes =
    List.concat
      (List.map2
         (fun op (o : outcome) ->
           if o.ok then [] else [ Printf.sprintf "prove %s: %s" op.pair.Gen.name o.detail ])
         (Array.to_list ops) (Array.to_list outcomes))
  in
  let flat f rounds = Array.concat (Array.to_list (Array.map f rounds)) in
  if not trace then begin
    let timed = pass ~traced:false rounds in
    let ops = flat Fun.id rounds and outcomes = flat fst timed in
    let n = Array.length ops in
    let failed = Common.count_failed (Array.to_list (Array.map (fun o -> o.ok) outcomes)) in
    let cert_bytes =
      Array.fold_left
        (fun acc op -> if op.pair.Gen.equivalent then acc + Proc.file_size op.proof else acc)
        0 ops
    in
    {
      Common.correct = failed = 0;
      attempted = n;
      failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          Common.ops_per_s
            (Array.to_list (Array.map (fun (o, t) -> (Array.length o, t)) timed));
        ]
        @ Common.latency_metrics (Array.to_list (Array.map (fun o -> o.ms) outcomes))
        @ [
            ( "peak_rss_mb",
              float_of_int (Array.fold_left (fun acc o -> max acc o.rss_kb) 0 outcomes) /. 1024.,
              "MB" );
            ("cert_kb", float_of_int cert_bytes /. 1024., "KB");
            ("ok_frac", float_of_int (n - failed) /. float_of_int n, "1");
          ];
      summary = [];
      notes = failures ops outcomes;
    }
  end
  else begin
    let rounds = Array.sub rounds 0 Common.traced_rounds in
    let ops = flat Fun.id rounds in
    let side timed = (Array.length ops, Array.fold_left (fun acc (_, t) -> acc +. t) 0. timed) in
    let untraced = pass ~traced:false rounds in
    let traced = pass ~traced:true rounds in
    let r = replay ops (flat fst traced) in
    let counter name = float_of_int (Option.value (List.assoc_opt name r.counters) ~default:0) in
    let outcomes = Array.append (flat fst untraced) (flat fst traced) in
    let failed = Common.count_failed (Array.to_list (Array.map (fun o -> o.ok) outcomes)) in
    {
      Common.correct = failed = 0 && r.mismatches = [];
      attempted = Array.length outcomes;
      failed;
      metrics =
        Common.per_layer
          (Common.span_metrics
             [ "cli.cec"; "cli.check"; "aig.parse"; "core.cec"; "proof.export"; "cnf.tseitin";
               "proof.parse"; "proof.check" ]
          @ [ ("core.alloc_mw", r.core_alloc_mw); ("proof.check_alloc_mw", r.check_alloc_mw) ]
          @ List.map
              (fun n -> (n, counter n))
              [ "sat.conflicts"; "sat.propagations"; "sat.decisions"; "sweep.sat_calls";
                "sweep.merges"; "sweep.lemmas" ]
          @ [ Common.overhead ~untraced:(side untraced) ~traced:(side traced) ]);
      summary = [];
      notes =
        failures ops (flat fst untraced) @ failures ops (flat fst traced) @ r.mismatches;
    }
  end
