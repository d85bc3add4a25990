(* Experiment harness: regenerates every table (T1-T7) and figure
   series (F1-F8) documented in EXPERIMENTS.md, plus one Bechamel
   micro-benchmark per table or figure.  Performance is measured by
   perfbench (perfbench/README.md).

   Usage:
     dune exec bench/main.exe            run all experiments + bechamel
     dune exec bench/main.exe t1 f3 ...  run selected experiments
     dune exec bench/main.exe bechamel   run only the micro-benchmarks *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Simclass = Cec_core.Simclass
module Pstats = Proof.Pstats

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

let sweeping_engine = Cec.Sweeping Sweep.default_config

let check_case engine case =
  let miter = Circuits.Suite.miter_of case in
  time (fun () -> Cec.check_miter engine miter)

let cert_of report =
  match report.Cec.verdict with
  | Cec.Equivalent cert -> cert
  | Cec.Inequivalent _ -> failwith "benchmark case inequivalent (bug)"
  | Cec.Undecided -> failwith "benchmark case undecided"

(* Collected certificates feed F2 (check time vs proof size). *)
let collected_certificates : (string * Cec.certificate) list ref = ref []

let remember name cert = collected_certificates := (name, cert) :: !collected_certificates

(* --- T1: benchmark characteristics --- *)

let t1 () =
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let miter = Aig.Miter.build golden revised in
        [
          case.Circuits.Suite.name;
          string_of_int (Aig.num_inputs golden);
          string_of_int (Aig.num_outputs golden);
          string_of_int (Aig.num_ands golden);
          string_of_int (Aig.num_ands revised);
          string_of_int (Aig.num_ands miter);
          string_of_int (Aig.depth miter);
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T1: benchmark suite characteristics"
    ~columns:[ "case"; "PIs"; "POs"; "golden ANDs"; "revised ANDs"; "miter ANDs"; "depth" ]
    ~rows

(* --- T2: engine comparison (time, SAT calls, conflicts, merges) --- *)

let t2 () =
  let rows =
    List.map
      (fun case ->
        let mono, mono_t = check_case Cec.Monolithic case in
        let sweep, sweep_t = check_case sweeping_engine case in
        let s = Option.get sweep.Cec.sweep_stats in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms mono_t;
          string_of_int mono.Cec.solver_conflicts;
          Tables.fmt_ms sweep_t;
          string_of_int sweep.Cec.sat_calls;
          string_of_int sweep.Cec.solver_conflicts;
          string_of_int (s.Sweep.merges + s.Sweep.const_merges);
          string_of_int s.Sweep.cex;
          Tables.fmt_ratio mono_t sweep_t;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T2: CEC engines (mono vs sweeping; time in ms)"
    ~columns:
      [
        "case"; "mono ms"; "mono conf"; "sweep ms"; "calls"; "sweep conf"; "merges"; "cex";
        "speedup";
      ]
    ~rows

(* --- T2h: hard instances (time and proof size, both engines) --- *)

let t2h () =
  let rows =
    List.map
      (fun case ->
        let mono, mono_t = check_case Cec.Monolithic case in
        let sweep, sweep_t = check_case sweeping_engine case in
        let ms = Pstats.of_root (cert_of mono).Cec.proof ~root:(cert_of mono).Cec.root in
        let ss = Pstats.of_root (cert_of sweep).Cec.proof ~root:(cert_of sweep).Cec.root in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms mono_t;
          Tables.fmt_ms sweep_t;
          Tables.fmt_ratio mono_t sweep_t;
          string_of_int ms.Pstats.resolutions;
          string_of_int ss.Pstats.resolutions;
          Tables.fmt_ratio (float_of_int ms.Pstats.resolutions) (float_of_int ss.Pstats.resolutions);
        ])
      Circuits.Suite.hard
  in
  Tables.print ~title:"T2h: hard instances (Booth multiplier pairs)"
    ~columns:
      [ "case"; "mono ms"; "sweep ms"; "speedup"; "mono res"; "sweep res"; "proof ratio" ]
    ~rows

(* --- T3: resolution proof sizes, both engines, checker pass --- *)

let t3 () =
  let rows =
    List.map
      (fun case ->
        let name = case.Circuits.Suite.name in
        let mono, _ = check_case Cec.Monolithic case in
        let sweep, _ = check_case sweeping_engine case in
        let mono_cert = cert_of mono and sweep_cert = cert_of sweep in
        remember (name ^ "/mono") mono_cert;
        remember (name ^ "/sweep") sweep_cert;
        let ms = Pstats.of_root mono_cert.Cec.proof ~root:mono_cert.Cec.root in
        let ss = Pstats.of_root sweep_cert.Cec.proof ~root:sweep_cert.Cec.root in
        let checked cert =
          match Cec_core.Certify.validate cert with
          | Ok _ -> "ok"
          | Error _ -> "FAIL"
        in
        [
          name;
          string_of_int ms.Pstats.chains;
          string_of_int ms.Pstats.resolutions;
          string_of_int ss.Pstats.chains;
          string_of_int ss.Pstats.resolutions;
          Tables.fmt_ratio (float_of_int ms.Pstats.resolutions) (float_of_int ss.Pstats.resolutions);
          checked mono_cert;
          checked sweep_cert;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T3: resolution proof size (chains / resolution steps)"
    ~columns:
      [ "case"; "mono chains"; "mono res"; "sweep chains"; "sweep res"; "mono/sweep"; "chk-m"; "chk-s" ]
    ~rows

(* --- T4: trimming the sweeping proofs --- *)

let t4 () =
  (* The monolithic store keeps a chain per learned clause, most of
     which never feed the empty clause; the sweeping store keeps lemma
     derivations, some of which the final refutation never needs.
     Trimming measures both kinds of dead weight. *)
  let trim_stats cert =
    let reachable, total = Proof.Trim.sizes cert.Cec.proof ~root:cert.Cec.root in
    let (trimmed, troot), trim_t =
      time (fun () -> Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root)
    in
    let check_result, check_t =
      time (fun () ->
          Proof.Checker.check trimmed ~root:troot ~leaf_ok:(Cnf.Tseitin.miter_mem cert.Cec.miter) ())
    in
    let ok = match check_result with Ok _ -> "ok" | Error _ -> "FAIL" in
    let pct = 100.0 *. float_of_int (total - reachable) /. float_of_int (max total 1) in
    (total, reachable, pct, trim_t, check_t, ok)
  in
  let rows =
    List.map
      (fun case ->
        let mono, _ = check_case Cec.Monolithic case in
        let sweep, _ = check_case sweeping_engine case in
        let m_total, m_reach, m_pct, _, _, m_ok = trim_stats (cert_of mono) in
        let s_total, s_reach, s_pct, trim_t, check_t, s_ok = trim_stats (cert_of sweep) in
        [
          case.Circuits.Suite.name;
          Printf.sprintf "%d/%d" m_reach m_total;
          Printf.sprintf "%.1f%%" m_pct;
          Printf.sprintf "%d/%d" s_reach s_total;
          Printf.sprintf "%.1f%%" s_pct;
          Tables.fmt_ms trim_t;
          Tables.fmt_ms check_t;
          (if m_ok = "ok" && s_ok = "ok" then "ok" else "FAIL");
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T4: proof trimming (live nodes / store nodes, % trimmed)"
    ~columns:
      [ "case"; "mono live/all"; "mono cut"; "sweep live/all"; "sweep cut"; "trim ms"; "check ms"; "ok" ]
    ~rows

(* --- F1: proof size vs circuit size (adder width sweep) --- *)

let f1_widths = [ 2; 4; 8; 12; 16; 24; 32 ]

let f1 () =
  let rows =
    List.map
      (fun width ->
        let miter =
          Aig.Miter.build (Circuits.Adder.ripple_carry width) (Circuits.Adder.carry_lookahead width)
        in
        let mono, mono_t = time (fun () -> Cec.check_miter Cec.Monolithic miter) in
        let sweep, sweep_t = time (fun () -> Cec.check_miter sweeping_engine miter) in
        let mono_cert = cert_of mono and sweep_cert = cert_of sweep in
        remember (Printf.sprintf "add%d/mono" width) mono_cert;
        remember (Printf.sprintf "add%d/sweep" width) sweep_cert;
        let ms = Pstats.of_root mono_cert.Cec.proof ~root:mono_cert.Cec.root in
        let ss = Pstats.of_root sweep_cert.Cec.proof ~root:sweep_cert.Cec.root in
        [
          string_of_int width;
          string_of_int (Aig.num_ands miter);
          string_of_int ms.Pstats.resolutions;
          string_of_int ss.Pstats.resolutions;
          Tables.fmt_ms mono_t;
          Tables.fmt_ms sweep_t;
        ])
      f1_widths
  in
  Tables.print
    ~title:"F1: proof size scaling on add-rc vs add-cla miters (series: mono, sweep)"
    ~columns:[ "width"; "miter ANDs"; "mono res"; "sweep res"; "mono ms"; "sweep ms" ]
    ~rows

(* --- F2: proof check time vs proof size --- *)

let f2 () =
  if !collected_certificates = [] then
    (* Standalone invocation: gather a few certificates first. *)
    List.iter
      (fun case ->
        let sweep, _ = check_case sweeping_engine case in
        remember case.Circuits.Suite.name (cert_of sweep))
      Circuits.Suite.small;
  let rows =
    List.rev_map
      (fun (name, cert) ->
        let s = Pstats.of_root cert.Cec.proof ~root:cert.Cec.root in
        let result, check_t =
          time (fun () ->
              Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root
                ~leaf_ok:(Cnf.Tseitin.miter_mem cert.Cec.miter) ())
        in
        let ok = match result with Ok _ -> "ok" | Error _ -> "FAIL" in
        [
          name;
          string_of_int s.Pstats.chains;
          string_of_int s.Pstats.resolutions;
          Tables.fmt_ms check_t;
          (if s.Pstats.resolutions = 0 then "-"
           else Printf.sprintf "%.2f" (1e6 *. check_t /. float_of_int s.Pstats.resolutions));
          ok;
        ])
      !collected_certificates
  in
  Tables.print ~title:"F2: proof check time vs proof size (series over all certificates)"
    ~columns:[ "certificate"; "chains"; "resolutions"; "check ms"; "us/res"; "ok" ]
    ~rows

(* --- F3: simulation budget vs SAT calls (ablation) --- *)

let f3 () =
  let miter = Aig.Miter.build (Circuits.Multiplier.array 4) (Circuits.Multiplier.shift_add 4) in
  let rows =
    List.map
      (fun words ->
        let cfg = { Sweep.default_config with Sweep.words } in
        let (outcome, stats), t = time (fun () -> Sweep.run miter cfg) in
        let verdict =
          match outcome with
          | Sweep.Proved _ -> "proved"
          | Sweep.Disproved _ -> "CEX?"
          | Sweep.Unresolved -> "budget"
        in
        let classes, members =
          let simc = Simclass.create miter ~words ~seed:Sweep.default_config.Sweep.seed in
          Simclass.class_stats simc
        in
        [
          string_of_int words;
          string_of_int (64 * words);
          string_of_int classes;
          string_of_int members;
          string_of_int stats.Sweep.sat_calls;
          string_of_int stats.Sweep.cex;
          Tables.fmt_ms t;
          verdict;
        ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Tables.print ~title:"F3: simulation budget vs SAT effort (mul4 array-vs-shift/add)"
    ~columns:[ "words"; "patterns"; "classes"; "members"; "sat calls"; "cex"; "ms"; "verdict" ]
    ~rows

(* --- F4: lemma reuse ablation --- *)

let f4_budget = 20_000

let f4 () =
  let rows =
    List.map
      (fun case ->
        let run lemma_reuse =
          (* The no-lemmas arm can blow up by orders of magnitude, so
             the final call gets a conflict budget; budgeted rows are
             marked and report a lower bound. *)
          let cfg =
            { Sweep.default_config with Sweep.lemma_reuse; max_conflicts = Some f4_budget }
          in
          check_case (Cec.Sweeping cfg) case
        in
        let with_l, t_with = run true in
        let without_l, t_without = run false in
        let conflicts r = r.Cec.solver_conflicts in
        let budgeted = match without_l.Cec.verdict with Cec.Undecided -> ">" | _ -> "" in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms t_with;
          string_of_int (conflicts with_l);
          Tables.fmt_ms t_without;
          budgeted ^ string_of_int (conflicts without_l);
          budgeted
          ^ Tables.fmt_ratio
              (float_of_int (conflicts without_l))
              (float_of_int (max 1 (conflicts with_l)));
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"F4: lemma reuse ablation (sweeping engine)"
    ~columns:[ "case"; "lemmas ms"; "lemmas conf"; "no-lemmas ms"; "no-lemmas conf"; "conf blowup" ]
    ~rows


(* --- T5: fraig functional reduction (the engine as synthesis) --- *)

let t5 () =
  let rows =
    List.map
      (fun case ->
        (* Fraig the structurally inflated (revised) version alone. *)
        let inflated = case.Circuits.Suite.revised () in
        let (reduced, stats), t = time (fun () -> Sweep.fraig inflated Sweep.default_config) in
        [
          case.Circuits.Suite.name;
          string_of_int (Aig.num_ands inflated);
          string_of_int (Aig.num_ands reduced);
          Printf.sprintf "%.1f%%"
            (100.0
            *. float_of_int (Aig.num_ands inflated - Aig.num_ands reduced)
            /. float_of_int (max 1 (Aig.num_ands inflated)));
          string_of_int (stats.Sweep.merges + stats.Sweep.const_merges);
          string_of_int stats.Sweep.sat_calls;
          Tables.fmt_ms t;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T5: fraig functional reduction of the revised netlists"
    ~columns:[ "case"; "ANDs before"; "ANDs after"; "reduction"; "merges"; "sat calls"; "ms" ]
    ~rows

(* --- F5: proof compression by derivation sharing --- *)

let f5 () =
  let rows =
    List.map
      (fun case ->
        let sweep, _ = check_case sweeping_engine case in
        let cert = cert_of sweep in
        let (kept, original), t =
          time (fun () -> Proof.Compress.sharing_gain cert.Cec.proof ~root:cert.Cec.root)
        in
        let shared, sroot = Proof.Compress.share cert.Cec.proof ~root:cert.Cec.root in
        let ok =
          let leaf_ok = Cnf.Tseitin.miter_mem cert.Cec.miter in
          match Proof.Checker.check shared ~root:sroot ~leaf_ok () with
          | Ok _ -> "ok"
          | Error _ -> "FAIL"
        in
        [
          case.Circuits.Suite.name;
          string_of_int original;
          string_of_int kept;
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int (original - kept) /. float_of_int (max 1 original));
          Tables.fmt_ms t;
          ok;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"F5: proof compression by derivation sharing (sweeping proofs)"
    ~columns:[ "case"; "cone nodes"; "after sharing"; "shared away"; "ms"; "ok" ]
    ~rows

(* --- T7: certified synthesis pipeline (restructure -> cutsweep -> fraig) --- *)

let t7 () =
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () in
        let inflated = case.Circuits.Suite.revised () in
        let swept = Synth.Cutsweep.reduce inflated in
        let fraiged, _ = Sweep.fraig swept Sweep.default_config in
        let fraiged = Aig.cleanup fraiged in
        let certified =
          match (Cec.check sweeping_engine golden fraiged).Cec.verdict with
          | Cec.Equivalent cert -> (
            match Cec_core.Certify.validate_against cert golden fraiged with
            | Ok _ -> "ok"
            | Error _ -> "FAIL")
          | Cec.Inequivalent _ -> "NEQ"
          | Cec.Undecided -> "budget"
        in
        [
          case.Circuits.Suite.name;
          string_of_int (Aig.num_ands golden);
          string_of_int (Aig.num_ands inflated);
          string_of_int (Aig.num_ands swept);
          string_of_int (Aig.num_ands fraiged);
          Printf.sprintf "%.1f%%"
            (100.0
            *. float_of_int (Aig.num_ands inflated - Aig.num_ands fraiged)
            /. float_of_int (max 1 (Aig.num_ands inflated)));
          certified;
        ])
      Circuits.Suite.default
  in
  Tables.print
    ~title:"T7: certified optimization pipeline (revised -> cutsweep -> fraig, checked vs golden)"
    ~columns:[ "case"; "golden"; "revised"; "cutsweep"; "fraig"; "reduction"; "cert" ]
    ~rows

(* --- T6: BDD baseline across the suite --- *)

let t6 () =
  let rows =
    List.map
      (fun case ->
        let golden = case.Circuits.Suite.golden () and revised = case.Circuits.Suite.revised () in
        let report, bdd_t = time (fun () -> Bdd.Equiv.check ~max_nodes:1_000_000 golden revised) in
        let verdict =
          match report.Bdd.Equiv.verdict with
          | Bdd.Equiv.Equivalent -> "eq"
          | Bdd.Equiv.Inequivalent _ -> "NEQ"
          | Bdd.Equiv.Blowup -> "BLOWUP"
        in
        let _, sweep_t = check_case sweeping_engine case in
        [
          case.Circuits.Suite.name;
          verdict;
          string_of_int report.Bdd.Equiv.bdd_nodes;
          Tables.fmt_ms bdd_t;
          Tables.fmt_ms sweep_t;
        ])
      Circuits.Suite.default
  in
  Tables.print ~title:"T6: BDD baseline vs sweeping (node cap 1M)"
    ~columns:[ "case"; "bdd verdict"; "bdd nodes"; "bdd ms"; "sweep ms" ]
    ~rows

(* --- F6: where BDDs fall off a cliff (multiplier width sweep) --- *)

let f6 () =
  let rows =
    List.map
      (fun width ->
        let golden = Circuits.Multiplier.array width in
        let revised = Circuits.Rewrite.restructure (Support.Rng.create 5) golden in
        let report, bdd_t = time (fun () -> Bdd.Equiv.check ~max_nodes:1_000_000 golden revised) in
        let bdd_verdict =
          match report.Bdd.Equiv.verdict with
          | Bdd.Equiv.Equivalent -> "eq"
          | Bdd.Equiv.Inequivalent _ -> "NEQ"
          | Bdd.Equiv.Blowup -> "BLOWUP"
        in
        let sweep, sweep_t =
          time (fun () -> Cec.check (Cec.Sweeping Sweep.default_config) golden revised)
        in
        let sweep_verdict, proof_res =
          match sweep.Cec.verdict with
          | Cec.Equivalent cert ->
            let s = Pstats.of_root cert.Cec.proof ~root:cert.Cec.root in
            ("eq+proof", string_of_int s.Pstats.resolutions)
          | Cec.Inequivalent _ -> ("NEQ", "-")
          | Cec.Undecided -> ("budget", "-")
        in
        [
          string_of_int width;
          bdd_verdict;
          string_of_int report.Bdd.Equiv.bdd_nodes;
          Tables.fmt_ms bdd_t;
          sweep_verdict;
          Tables.fmt_ms sweep_t;
          proof_res;
        ])
      [ 4; 6; 8; 10 ]
  in
  Tables.print
    ~title:"F6: BDD cliff on multipliers (mulN array vs restructured; BDD cap 1M nodes)"
    ~columns:[ "width"; "bdd"; "bdd nodes"; "bdd ms"; "sweep"; "sweep ms"; "sweep proof res" ]
    ~rows

(* --- F7: engine-mode ablation (fresh solvers + lifting vs one
       incremental solver with native assumptions) ------------------- *)

let f7 () =
  let rows =
    List.map
      (fun case ->
        let run mode = check_case (Cec.Sweeping { Sweep.default_config with Sweep.mode }) case in
        let fresh, t_fresh = run Sweep.Perpair in
        let inc, t_inc = run Sweep.Incremental in
        let proof_res report =
          let cert = cert_of report in
          (Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Pstats.resolutions
        in
        [
          case.Circuits.Suite.name;
          Tables.fmt_ms t_fresh;
          string_of_int fresh.Cec.solver_conflicts;
          string_of_int (proof_res fresh);
          Tables.fmt_ms t_inc;
          string_of_int inc.Cec.solver_conflicts;
          string_of_int (proof_res inc);
          Tables.fmt_ratio t_fresh t_inc;
        ])
      (Circuits.Suite.default @ Circuits.Suite.hard)
  in
  Tables.print
    ~title:"F7: engine mode (fresh solvers + lift vs incremental native assumptions)"
    ~columns:
      [ "case"; "fresh ms"; "fresh conf"; "fresh res"; "inc ms"; "inc conf"; "inc res"; "speedup" ]
    ~rows

(* --- F8: bounded sequential equivalence scaling over frames -------- *)

let f8 () =
  let a = Circuits.Counters.gray_output_binary_counter 6 in
  let b = Circuits.Counters.gray_state_counter 6 in
  let rows =
    List.map
      (fun frames ->
        let ua = Aig.Seq.unroll a ~frames and ub = Aig.Seq.unroll b ~frames in
        let miter_ands = Aig.num_ands (Aig.Miter.build ua ub) in
        let run engine = time (fun () -> Cec.check_bounded ~frames engine a b) in
        let mono, mono_t = run Cec.Monolithic in
        let sweep, sweep_t =
          run (Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental })
        in
        let res report =
          match report.Cec.verdict with
          | Cec.Equivalent cert ->
            string_of_int
              (Pstats.of_root cert.Cec.proof ~root:cert.Cec.root).Pstats.resolutions
          | Cec.Inequivalent _ -> "NEQ"
          | Cec.Undecided -> "budget"
        in
        [
          string_of_int frames;
          string_of_int miter_ands;
          Tables.fmt_ms mono_t;
          res mono;
          Tables.fmt_ms sweep_t;
          res sweep;
        ])
      [ 2; 4; 8; 16; 32 ]
  in
  Tables.print
    ~title:"F8: bounded sequential equivalence (6-bit gray counter pair, frames sweep)"
    ~columns:[ "frames"; "miter ANDs"; "mono ms"; "mono res"; "sweep ms"; "sweep res" ]
    ~rows

(* --- Bechamel micro-benchmarks: one Test.make per experiment --- *)


let bechamel_tests () =
  let open Bechamel in
  let quick_case = List.hd Circuits.Suite.small in
  let small_miter = Circuits.Suite.miter_of quick_case in
  let small_cert =
    lazy
      (match (Cec.check_miter sweeping_engine small_miter).Cec.verdict with
      | Cec.Equivalent cert -> cert
      | Cec.Inequivalent _ | Cec.Undecided -> failwith "bechamel setup failed")
  in
  [
    Test.make ~name:"t1-suite-build"
      (Staged.stage (fun () -> ignore (Circuits.Suite.miter_of quick_case)));
    Test.make ~name:"t2-cec-sweeping"
      (Staged.stage (fun () -> ignore (Cec.check_miter sweeping_engine small_miter)));
    Test.make ~name:"t3-cec-monolithic"
      (Staged.stage (fun () -> ignore (Cec.check_miter Cec.Monolithic small_miter)));
    Test.make ~name:"t4-proof-trim"
      (Staged.stage (fun () ->
           let cert = Lazy.force small_cert in
           ignore (Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root)));
    Test.make ~name:"f1-adder-miter"
      (Staged.stage (fun () ->
           ignore
             (Aig.Miter.build (Circuits.Adder.ripple_carry 8) (Circuits.Adder.carry_lookahead 8))));
    Test.make ~name:"f2-proof-check"
      (Staged.stage (fun () ->
           let cert = Lazy.force small_cert in
           ignore
             (Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root
                ~leaf_ok:(Cnf.Tseitin.miter_mem cert.Cec.miter) ())));
    Test.make ~name:"f3-simclass"
      (Staged.stage (fun () -> ignore (Simclass.create small_miter ~words:8 ~seed:1)));
    Test.make ~name:"f4-sweep-no-lemmas"
      (Staged.stage (fun () ->
           ignore (Sweep.run small_miter { Sweep.default_config with Sweep.lemma_reuse = false })));
    Test.make ~name:"t5-fraig"
      (Staged.stage (fun () ->
           ignore (Sweep.fraig (Circuits.Adder.carry_lookahead 4) Sweep.default_config)));
    Test.make ~name:"f5-proof-sharing"
      (Staged.stage (fun () ->
           let cert = Lazy.force small_cert in
           ignore (Proof.Compress.share cert.Cec.proof ~root:cert.Cec.root)));
    Test.make ~name:"t6-bdd-equiv"
      (Staged.stage (fun () ->
           ignore
             (Bdd.Equiv.check (Circuits.Adder.ripple_carry 8) (Circuits.Prefix_adder.kogge_stone 8))));
    Test.make ~name:"f7-incremental-sweep"
      (Staged.stage (fun () ->
           ignore
             (Cec.check_miter
                (Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Incremental })
                small_miter)));
    Test.make ~name:"f8-bounded-unroll"
      (Staged.stage (fun () ->
           ignore (Aig.Seq.unroll (Circuits.Counters.binary_counter 8) ~frames:8)));
    Test.make ~name:"f6-bdd-build"
      (Staged.stage (fun () ->
           let t = Bdd.Manager.create ~num_vars:12 () in
           ignore (Bdd.Manager.of_aig t (Circuits.Multiplier.array 6))));
  ]

let run_bechamel () =
  let open Bechamel in
  print_endline "== Bechamel micro-benchmarks (one per experiment) ==";
  let clock = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"experiments" [ test ])
  in
  let analyze raw =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-24s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-24s (no estimate)\n" name)
        results)
    (bechamel_tests ());
  print_newline ();
  flush stdout

(* --- driver --- *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("t2h", t2h); ("t3", t3); ("t4", t4); ("t5", t5);
    ("t6", t6); ("t7", t7); ("f1", f1); ("f2", f2); ("f3", f3); ("f4", f4); ("f5", f5); ("f6", f6); ("f7", f7); ("f8", f8);
  ]

let () =
  Obs.Clock.set now;
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then List.map fst experiments @ [ "bechamel" ] else args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let (), t = time f in
        Printf.printf "(%s completed in %s ms)\n\n" name (Tables.fmt_ms t);
        flush stdout
      | None ->
        if name = "bechamel" then run_bechamel ()
        else begin
          Printf.eprintf "unknown experiment %S (t1-t7/t2h, f1-f8, bechamel)\n" name;
          exit 2
        end)
    selected
