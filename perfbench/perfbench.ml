(* perfbench: the repository's benchmark.

   perfbench --workload {prove,serve,ingest} --seed N --seconds S --trace {0,1}

   Runs one seeded workload against the cec_tool built from the same
   tree, checks every answer, and prints one JSON result line last.
   With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
   with --trace 1 two rounds run untraced and two traced on the same
   processes, and the traced ops replay in-process for the per-layer
   metrics.  Exit 0 only when every answer was right. *)

let usage = "perfbench --workload {prove,serve,ingest} --seed N --seconds S --trace {0,1} [--tool PATH]"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tool : string;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let tool =
    ref
      (Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         (Filename.concat "bin" "cec_tool.exe"))
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME prove, serve or ingest");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S nominal length of the timed pass");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 end-to-end or traced per-layer run");
      ("--tool", Arg.Set_string tool, "PATH cec_tool executable");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!workload, !seed, !seconds, !trace) with
  | ("prove" | "serve" | "ingest"), Some seed, Some seconds, Some (0 | 1 as t) when seconds > 0. ->
    { workload = !workload; seed; seconds; trace = t = 1; tool = !tool }
  | _ ->
    prerr_endline usage;
    exit 2

let run args ~dir =
  let { tool; seed; seconds; trace; _ } = args in
  match args.workload with
  | "prove" -> Prove.run ~tool ~dir ~seed ~seconds ~trace
  | "serve" -> Service_wl.run `Serve ~tool ~dir ~seed ~seconds ~trace
  | _ -> Service_wl.run `Ingest ~tool ~dir ~seed ~seconds ~trace

let () =
  Clock.install ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted = Sys.Signal_handle (fun _ -> failwith "interrupted") in
  Sys.set_signal Sys.sigint interrupted;
  Sys.set_signal Sys.sigterm interrupted;
  let args = parse_args () in
  if not (Sys.file_exists args.tool) then begin
    Printf.eprintf "perfbench: %s not found (build it with dune first)\n" args.tool;
    exit 2
  end;
  let host_before = Clock.spin_ms () in
  let root = ".perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" args.workload (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let r =
    match
      Fun.protect
        ~finally:(fun () ->
          Daemons.stop_all ();
          Proc.rm_rf dir)
        (fun () -> run args ~dir)
    with
    | r -> r
    | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n" args.workload (Printexc.to_string e);
      exit 1
  in
  if args.trace then
    Trace.write_json (Filename.concat root (Printf.sprintf "spans-%s-%d.json" args.workload args.seed));
  let host_after = Clock.spin_ms () in
  let host_ms = (host_before +. host_after) /. 2. in
  List.iter (fun n -> Printf.eprintf "perfbench: %s\n" n) r.Common.notes;
  Printf.printf "%s seed=%d host.spin_ms=%.1f (start %.1f, end %.1f)%s\n" args.workload args.seed
    host_ms host_before host_after
    (String.concat ""
       (List.map (fun (name, v, unit) -> Printf.sprintf " %s=%.3f %s" name v unit) r.Common.summary));
  Report.print ~correct:r.Common.correct ~attempted:r.Common.attempted ~failed:r.Common.failed
    (if args.trace then r.Common.metrics @ [ ("host.spin_ms", host_ms, "ms") ] else r.Common.metrics);
  exit (if r.Common.correct then 0 else 1)
