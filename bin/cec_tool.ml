(* cec_tool: command-line front end for the library.

   Subcommands:
     gen         generate a named benchmark circuit as ASCII AIGER
     stats       print size statistics of an AIGER file
     miter       build the miter of two AIGER files
     dimacs      export a single-output miter's CNF in DIMACS
     cec         check two AIGER files for equivalence (with proofs)
     check-proof validate a certificate (ASCII trace or CECB binary)
     fraig       functional reduction (merge SAT-proved equivalences)
     opt         run an optimization pipeline over an AIGER file
     bounded     bounded sequential equivalence (unroll + CEC)
     bmc         bounded safety of a sequential AIGER file
     sat         solve a DIMACS CNF with proof logging
     suite       list the built-in benchmark suite
     serve       run the certification daemon (Unix socket and/or TCP)
     client      submit one request to a daemon or a fleet router
     route       run the fleet router over a ring of shard daemons
     batch       run a manifest of pairs against a store, no daemon
     fsck        check and repair a certificate store directory

   The [commands] list at the bottom is the authority; an unknown
   subcommand prints that list and exits 2. *)

module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module Parallel = Cec_core.Parallel

(* Netlists are read as BLIF or AIGER depending on the extension. *)
let read_aiger path =
  try
    if Filename.check_suffix path ".blif" then Ok (Aig.Blif.read_file path)
    else Ok (Aig.Aiger.read_file path)
  with
  | Aig.Aiger.Parse_error msg | Aig.Blif.Parse_error msg ->
    Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

let netlist_to_string ?(blif = false) g =
  if blif then Aig.Blif.to_string g else Aig.Aiger.to_string g

(* Binary mode: certificate files may be CECB bytes, and text outputs
   must not grow CRLF endings on any platform. *)
let write_text path text =
  match path with
  | None -> print_string text
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Write the observability registry to the requested export files. *)
let export_obs reg ~stats_out ~trace_out =
  Option.iter (fun p -> write_text (Some p) (Obs.Export.stats_json reg)) stats_out;
  Option.iter (fun p -> write_text (Some p) (Obs.Export.trace_json reg)) trace_out

(* --- circuit specifications for `gen` --- *)

let circuit_of_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "unknown circuit spec %S (try add-rc:8, add-cla:8, add-csel:8, mul-arr:4, mul-sa:4, \
          eq:8, lt:8, parity:16, alu:8, mux:4, rand:16:300:8)"
         spec)
  in
  (* Sizes are parsed with [int_of_string_opt] so that a malformed spec
     like add-rc:x reports the usage hint instead of an uncaught
     [int_of_string] exception. *)
  let exception Bad_size in
  let size s = match int_of_string_opt s with Some n -> n | None -> raise Bad_size in
  try
    match String.split_on_char ':' spec with
    | [ "add-rc"; n ] -> Ok (Circuits.Adder.ripple_carry (size n))
    | [ "add-cla"; n ] -> Ok (Circuits.Adder.carry_lookahead (size n))
    | [ "add-csel"; n ] -> Ok (Circuits.Adder.carry_select (size n))
    | [ "mul-arr"; n ] -> Ok (Circuits.Multiplier.array (size n))
    | [ "mul-sa"; n ] -> Ok (Circuits.Multiplier.shift_add (size n))
    | [ "eq"; n ] -> Ok (Circuits.Datapath.equality (size n))
    | [ "lt"; n ] -> Ok (Circuits.Datapath.less_than (size n))
    | [ "parity"; n ] -> Ok (Circuits.Datapath.parity (size n))
    | [ "alu"; n ] -> Ok (Circuits.Datapath.alu (size n))
    | [ "mux"; n ] -> Ok (Circuits.Datapath.mux_tree (size n))
    | [ "rand"; inputs; ands; outputs ] ->
      Ok
        (Circuits.Random_aig.generate (Support.Rng.create 11) ~num_inputs:(size inputs)
           ~num_ands:(size ands) ~num_outputs:(size outputs))
    | _ -> fail ()
  with Bad_size -> fail ()

let apply_rewrite g = function
  | None -> g
  | Some "restructure" -> Circuits.Rewrite.restructure (Support.Rng.create 7) g
  | Some "rebalance" -> Circuits.Rewrite.rebalance `Balanced g
  | Some "double-negate" -> Circuits.Rewrite.double_negate g
  | Some other -> failwith (Printf.sprintf "unknown rewrite %S" other)

(* --- subcommand implementations (return exit codes) --- *)

let run_gen spec rewrite output =
  match circuit_of_spec spec with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok g ->
    let g = apply_rewrite g rewrite in
    let blif = match output with Some p -> Filename.check_suffix p ".blif" | None -> false in
    write_text output (netlist_to_string ~blif g);
    0

let run_stats path =
  match read_aiger path with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok g ->
    Format.printf "%s: %a@." path Aig.pp_stats g;
    0

let run_miter path_a path_b output =
  match (read_aiger path_a, read_aiger path_b) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    2
  | Ok a, Ok b -> (
    match Aig.Miter.build a b with
    | m ->
      write_text output (Aig.Aiger.to_string m);
      0
    | exception Invalid_argument msg ->
      prerr_endline msg;
      2)

let run_dimacs path output =
  match read_aiger path with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok g -> (
    match Cnf.Tseitin.miter_formula g with
    | f ->
      write_text output (Cnf.Dimacs.to_string f);
      0
    | exception Invalid_argument msg ->
      prerr_endline msg;
      2)

let engine_of_string ?base name =
  match Cec.engine_of_string ?base name with
  | Some engine -> Ok engine
  | None -> Error (Printf.sprintf "unknown engine %S (mono|sweep)" name)

let print_cex cex =
  print_string "counterexample: ";
  Array.iter (fun b -> print_char (if b then '1' else '0')) cex;
  print_newline ()

(* Parse-and-install wrapper shared by cec/serve/batch: the spec is
   installed around [k] and always removed again, so one subcommand
   cannot leak faults into another in the same process. *)
let with_faults faults k =
  match faults with
  | None -> k ()
  | Some spec -> (
    match Fault.parse spec with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok s ->
      Fault.install s;
      Fun.protect ~finally:Fault.disable k)

let print_partition (p : Parallel.partition) =
  let status =
    match p.Parallel.status with
    | Parallel.Proved -> "proved"
    | Parallel.Refuted -> "refuted"
    | Parallel.Gave_up -> "gave-up"
    | Parallel.Trivial -> "trivial"
    | Parallel.Shared o -> Printf.sprintf "shared with #%d" o
    | Parallel.Crashed -> "crashed"
  in
  Format.printf "partition %3d: %-18s (ands=%d, attempts=%d, conflicts=%d, sat_calls=%d)@."
    p.Parallel.output status p.Parallel.cone_ands p.Parallel.attempts p.Parallel.conflicts
    p.Parallel.sat_calls

let run_cec path_a path_b engine_name words no_lemmas max_conflicts sweep_mode jobs stats_out
    trace_out proof_out cert_format validate faults =
  with_faults faults @@ fun () ->
  match (read_aiger path_a, read_aiger path_b) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    2
  | Ok a, Ok b -> (
    let base =
      {
        Sweep.default_config with
        Sweep.lemma_reuse = not no_lemmas;
        words;
        max_conflicts;
        mode = sweep_mode;
      }
    in
    match engine_of_string ~base engine_name with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok engine -> (
      let reg = Obs.Registry.create () in
      (* --jobs N >= 1 always takes the partitioned path, so --jobs 1
         and --jobs 4 run the same per-partition work and produce
         identical aggregate counters; 0 (the default) is the
         sequential single-miter engine. *)
      let check () =
        Obs.with_ambient reg (fun () ->
            if jobs <= 0 then (Cec.check engine a b, None)
            else begin
              let config =
                {
                  Parallel.default_config with
                  Parallel.num_domains = jobs;
                  engine;
                  budget = max_conflicts;
                }
              in
              let par = Parallel.check ~config a b in
              let stats = par.Parallel.stats in
              Array.iter print_partition stats.Parallel.partitions;
              Format.printf "parallel: %d partitions on %d domains, %d round(s)@."
                (Array.length stats.Parallel.partitions)
                stats.Parallel.domains stats.Parallel.rounds;
              ( {
                  Cec.verdict = par.Parallel.verdict;
                  sweep_stats = None;
                  solver_conflicts = stats.Parallel.conflicts;
                  sat_calls = stats.Parallel.sat_calls;
                },
                par.Parallel.degraded )
            end)
      in
      match check () with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        2
      | report, degraded -> (
        export_obs reg ~stats_out ~trace_out;
        match report.Cec.verdict with
        | Cec.Equivalent cert ->
          let stats = Proof.Pstats.of_root cert.Cec.proof ~root:cert.Cec.root in
          Format.printf "EQUIVALENT (conflicts=%d, sat_calls=%d)@." report.Cec.solver_conflicts
            report.Cec.sat_calls;
          Format.printf "proof: %a@." Proof.Pstats.pp stats;
          (match proof_out with
          | None -> ()
          | Some path -> (
            match cert_format with
            | Service.Store.Bin ->
              (* [Binfmt.encode] trims to the reachable cone itself. *)
              write_text (Some path) (Proof.Binfmt.encode cert.Cec.proof ~root:cert.Cec.root)
            | Service.Store.Bin3 ->
              (* Hinted body sharded on the prover's section
                 boundaries: check-proof follows the hints with no
                 search and can split shards across --jobs domains. *)
              write_text (Some path)
                (Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
                   ~root:cert.Cec.root)
            | Service.Store.Trace ->
              let trimmed, root = Proof.Trim.cone cert.Cec.proof ~root:cert.Cec.root in
              write_text (Some path) (Proof.Export.trace_to_string trimmed ~root)));
          if validate then begin
            match Cec_core.Certify.validate_against cert a b with
            | Ok chains -> Format.printf "certificate validated (%d chains)@." chains
            | Error e ->
              Format.printf "certificate REJECTED: %a@." Cec_core.Certify.pp_error e;
              exit 3
          end;
          0
        | Cec.Inequivalent cex ->
          print_endline "INEQUIVALENT";
          print_cex cex;
          1
        | Cec.Undecided ->
          (match degraded with
          | Some reason -> Printf.printf "UNCERTIFIED (%s)\n" reason
          | None -> print_endline "UNDECIDED (conflict budget exhausted)");
          4)))

let run_check_proof miter_path trace_path jobs =
  match read_aiger miter_path with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok miter -> (
    match In_channel.with_open_bin trace_path In_channel.input_all with
    | exception Sys_error msg ->
      prerr_endline msg;
      2
    | text when Proof.Binfmt.is_hinted text -> (
      (* Hinted CECB certificate: follow the stored pivots — no search
         — and check the shards on [jobs] domains.  Same exit contract:
         corruption 2, well-formed-but-invalid 3. *)
      match Cnf.Tseitin.miter_formula miter with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        2
      | formula -> (
        match Proof.Hint_check.check ~formula ~jobs text with
        | Ok st ->
          Format.printf
            "OK: %d chains verified against %s (hinted, %d steps on %d shard(s), peak %d of %d \
             nodes live)@."
            st.Proof.Hint_check.chains miter_path st.Proof.Hint_check.hints_followed
            st.Proof.Hint_check.shards st.Proof.Hint_check.peak_live st.Proof.Hint_check.nodes;
          0
        | Error e when e.Proof.Hint_check.malformed ->
          Printf.eprintf "%s: parse error: %s\n" trace_path
            (Format.asprintf "%a" Proof.Hint_check.pp_error e);
          2
        | Error e ->
          Format.printf "REJECTED: %a@." Proof.Hint_check.pp_error e;
          3))
    | text when Proof.Binfmt.is_binary text -> (
      (* CECB binary certificate: validate in one bounded-memory pass.
         Byte-level corruption exits 2 (parse error), a well-formed but
         invalid proof exits 3 — same contract as the ASCII path. *)
      match Cnf.Tseitin.miter_formula miter with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        2
      | formula -> (
        match Proof.Stream_check.check ~formula text with
        | Ok st ->
          Format.printf "OK: %d chains verified against %s (binary, peak %d of %d nodes live)@."
            st.Proof.Stream_check.chains miter_path st.Proof.Stream_check.peak_live
            st.Proof.Stream_check.nodes;
          0
        | Error e when e.Proof.Stream_check.malformed ->
          Printf.eprintf "%s: parse error: %s\n" trace_path
            (Format.asprintf "%a" Proof.Stream_check.pp_error e);
          2
        | Error e ->
          Format.printf "REJECTED: %a@." Proof.Stream_check.pp_error e;
          3))
    | text -> (
    (* A malformed trace must exit cleanly (code 2) with a parse-error
       message, never an uncaught exception: [trace_of_string] raises
       [Failure] on syntax errors and [Invalid_argument] on dangling
       antecedent ids. *)
    match Proof.Export.trace_of_string text with
    | exception Failure msg ->
      Printf.eprintf "%s: parse error: %s\n" trace_path msg;
      2
    | exception Invalid_argument msg ->
      Printf.eprintf "%s: parse error: %s\n" trace_path msg;
      2
    | proof, root -> (
      match Cnf.Tseitin.miter_formula miter with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        2
      | formula -> (
        match Proof.Checker.check proof ~root ~formula () with
        | Ok chains ->
          Format.printf "OK: %d chains verified against %s@." chains miter_path;
          0
        | Error e ->
          Format.printf "REJECTED: %a@." Proof.Checker.pp_error e;
          3))))

let run_fraig path words output =
  match read_aiger path with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok g ->
    let cfg = { Sweep.default_config with Sweep.words } in
    let reduced, stats = Sweep.fraig g cfg in
    Format.eprintf "fraig: %d ANDs -> %d ANDs (%d merges, %d constants, %d SAT calls)@."
      (Aig.num_ands g) (Aig.num_ands reduced)
      stats.Sweep.merges stats.Sweep.const_merges stats.Sweep.sat_calls;
    write_text output (Aig.Aiger.to_string reduced);
    0

let run_sat path trace_out rup_check =
  match Cnf.Dimacs.read_file path with
  | exception Cnf.Dimacs.Parse_error msg ->
    prerr_endline msg;
    2
  | exception Sys_error msg ->
    prerr_endline msg;
    2
  | formula -> (
    let solver = Sat.Solver.create () in
    Sat.Solver.add_formula solver formula;
    match Sat.Solver.solve solver with
    | Sat.Solver.Sat model ->
      print_endline "s SATISFIABLE";
      print_string "v";
      Array.iteri
        (fun v value -> Printf.printf " %d" (if value then v + 1 else -(v + 1)))
        model;
      print_endline " 0";
      10
    | Sat.Solver.Unknown | Sat.Solver.Unsat_assuming _ ->
      print_endline "s UNKNOWN";
      0
    | Sat.Solver.Unsat root ->
      print_endline "s UNSATISFIABLE";
      let proof = Sat.Solver.proof solver in
      let trimmed, troot = Proof.Trim.cone proof ~root in
      (match Proof.Checker.check trimmed ~root:troot ~formula () with
      | Ok chains -> Printf.printf "c proof checked (%d chains)\n" chains
      | Error e ->
        Format.printf "c proof REJECTED: %a@." Proof.Checker.pp_error e;
        exit 3);
      if rup_check then begin
        match Proof.Rup.check_drup_string formula (Proof.Export.drup_to_string trimmed ~root:troot) with
        | Ok lemmas -> Printf.printf "c DRUP checked (%d lemmas)\n" lemmas
        | Error e ->
          Format.printf "c DRUP REJECTED: %a@." Proof.Rup.pp_error e;
          exit 3
      end;
      (match trace_out with
      | None -> ()
      | Some out -> write_text (Some out) (Proof.Export.trace_to_string trimmed ~root:troot));
      20)

let run_opt path passes words output =
  match read_aiger path with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok g ->
    let apply g pass =
      let before = Aig.num_ands g in
      let g' =
        match pass with
        | "cutsweep" -> Synth.Cutsweep.reduce g
        | "fraig" ->
          let reduced, _ = Sweep.fraig g { Sweep.default_config with Sweep.words } in
          Aig.cleanup reduced
        | "balance" -> Circuits.Rewrite.rebalance `Balanced g
        | "cleanup" -> Aig.cleanup g
        | other -> failwith (Printf.sprintf "unknown pass %S (cutsweep|fraig|balance|cleanup)" other)
      in
      Format.eprintf "%-9s %d -> %d ANDs (depth %d -> %d)@." pass before (Aig.num_ands g')
        (Aig.depth g) (Aig.depth g');
      g'
    in
    (match
       List.fold_left apply g (String.split_on_char ',' passes |> List.filter (fun s -> s <> ""))
     with
    | result ->
      write_text output (Aig.Aiger.to_string result);
      0
    | exception Failure msg ->
      prerr_endline msg;
      2)

let run_bounded path_a path_b frames engine_name =
  let read path =
    try Ok (Aig.Seq.read_file path) with
    | Aig.Seq.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Sys_error msg -> Error msg
  in
  match (read path_a, read path_b) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    2
  | Ok a, Ok b -> (
    match engine_of_string engine_name with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok engine -> (
      match Cec.check_bounded ~frames engine a b with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        2
      | report -> (
        match report.Cec.verdict with
        | Cec.Equivalent cert ->
          Format.printf "BOUNDED-EQUIVALENT for %d frames (conflicts=%d)@." frames
            report.Cec.solver_conflicts;
          (match Cec_core.Certify.validate cert with
          | Ok chains -> Format.printf "certificate validated (%d chains)@." chains
          | Error e ->
            Format.printf "certificate REJECTED: %a@." Cec_core.Certify.pp_error e;
            exit 3);
          0
        | Cec.Inequivalent trace ->
          print_endline "INEQUIVALENT";
          print_cex trace;
          1
        | Cec.Undecided ->
          print_endline "UNDECIDED";
          4)))

let run_bmc path frames engine_name =
  match
    try Ok (Aig.Seq.read_file path) with
    | Aig.Seq.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Sys_error msg -> Error msg
  with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok seq -> (
    match engine_of_string engine_name with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok engine -> (
      match (Cec.check_bounded_safety ~frames engine seq).Cec.verdict with
      | Cec.Equivalent cert ->
        Format.printf "SAFE for %d frames@." frames;
        (match Cec_core.Certify.validate cert with
        | Ok chains -> Format.printf "certificate validated (%d chains)@." chains
        | Error e ->
          Format.printf "certificate REJECTED: %a@." Cec_core.Certify.pp_error e;
          exit 3);
        0
      | Cec.Inequivalent trace ->
        print_endline "UNSAFE (bad state reachable)";
        print_cex trace;
        1
      | Cec.Undecided ->
        print_endline "UNDECIDED";
        4))

(* --- certification service (lib/service) --- *)

let mb_to_bytes = Option.map (fun mb -> mb * 1024 * 1024)

let service_engine budget =
  let base = Service.Engine.default_config in
  match budget with None -> base | Some _ -> { base with Service.Engine.budget = budget }

(* [--socket PATH] is always a Unix path; [--listen ADDR] goes through
   {!Service.Addr.parse} (Unix path or HOST:PORT).  Any mix, at least
   one. *)
let listen_addrs socket listens =
  let parsed =
    List.fold_left
      (fun acc spec ->
        match acc with
        | Error _ -> acc
        | Ok addrs -> (
          match Service.Addr.parse spec with
          | Ok a -> Ok (a :: addrs)
          | Error msg -> Error msg))
      (Ok []) listens
  in
  match parsed with
  | Error msg -> Error msg
  | Ok addrs -> (
    match
      (match socket with Some p -> [ Service.Addr.Unix_path p ] | None -> [])
      @ List.rev addrs
    with
    | [] -> Error "expected --socket PATH or --listen ADDR"
    | addrs -> Ok addrs)

let run_serve socket listens store capacity_mb no_paranoid workers queue budget timeout_ms quiet
    stats_out trace_out faults =
  with_faults faults @@ fun () ->
  match listen_addrs socket listens with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok listen -> (
    let cfg =
      {
        (Service.Server.default_config ~socket_path:"unused" ~store_dir:store) with
        Service.Server.listen;
        store_capacity = mb_to_bytes capacity_mb;
        paranoid = not no_paranoid;
        workers;
        queue_capacity = queue;
        engine = service_engine budget;
        default_timeout_ms = timeout_ms;
        log = not quiet;
        stats_out;
        trace_out;
      }
    in
    match Service.Server.run cfg with
    | _ -> 0
    | exception Failure msg ->
      prerr_endline msg;
      2
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "%s(%s): %s\n" fn arg (Unix.error_message e);
      2)

let run_client socket connects connect_timeout_ms ping stats metrics shutdown timeout_ms retries
    retry_delay_ms golden revised =
  match listen_addrs socket connects with
  | Error _ ->
    prerr_endline "client: expected --socket PATH or --connect ADDR";
    2
  | Ok addrs -> (
    let config =
      {
        Service.Client.default_config with
        Service.Client.retries = max 0 retries;
        base_delay_ms = retry_delay_ms;
        connect_timeout_ms;
        (* The request deadline also caps the client's own retry loop,
           with a grace second for the (typed) response to travel. *)
        deadline_ms = Option.map (fun ms -> float_of_int ms +. 1000.) timeout_ms;
      }
    in
    let send req =
      match Service.Client.request_to ~config addrs (Service.Protocol.print_request req) with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok line ->
        print_endline line;
        (match Service.Protocol.field "error" line with
        | Some _ -> 2
        | None -> (
          match Service.Protocol.field "status" line with
          | Some "equivalent" -> 0
          | Some "inequivalent" -> 1
          | Some "undecided" | Some "timeout" | Some "uncertified" -> 4
          | _ -> 0))
    in
    if ping then send Service.Protocol.Ping
    else if stats then send Service.Protocol.Stats
    else if metrics then send Service.Protocol.Metrics
    else if shutdown then send Service.Protocol.Shutdown
    else
      match (golden, revised) with
      | Some golden, Some revised -> send (Service.Protocol.Check { golden; revised; timeout_ms })
      | _ ->
        prerr_endline
          "client: expected GOLDEN and REVISED paths (or --ping/--stats/--metrics/--shutdown)";
        2)

(* A shard spec is [ID=ADDR] ([ADDR] alone uses the address string as
   the ring id — fine for ad-hoc fleets, but named ids keep ring
   placement stable when a shard moves host). *)
let parse_shard spec =
  let id, addr_spec =
    match String.index_opt spec '=' with
    | Some i when i > 0 && not (String.contains (String.sub spec 0 i) '/') ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | _ -> (spec, spec)
  in
  match Service.Addr.parse addr_spec with
  | Ok addr -> Ok { Fleet.Router.id; addr }
  | Error msg -> Error (Printf.sprintf "shard %S: %s" spec msg)

let run_route listen shard_specs replicas vnodes workers max_inflight queue probe_interval_ms
    connect_timeout_ms retry_after_ms request_timeout_ms probe_timeout_ms drain_timeout_ms quiet
    stats_out =
  let shards =
    List.fold_left
      (fun acc spec ->
        match (acc, parse_shard spec) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok shards, Ok s -> Ok (s :: shards))
      (Ok []) shard_specs
  in
  match (Service.Addr.parse listen, shards) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    2
  | Ok listen, Ok shards -> (
    let cfg =
      {
        (Fleet.Router.default_config ~listen ~shards:(List.rev shards)) with
        Fleet.Router.replicas;
        vnodes;
        workers;
        max_inflight;
        queue_capacity = queue;
        probe_interval_ms;
        connect_timeout_ms;
        retry_after_ms;
        request_timeout_ms;
        probe_timeout_ms;
        drain_timeout_ms;
        log = not quiet;
        stats_out;
      }
    in
    match Fleet.Router.run cfg with
    | _ -> 0
    | exception (Failure msg | Invalid_argument msg) ->
      prerr_endline msg;
      2
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "%s(%s): %s\n" fn arg (Unix.error_message e);
      2)

(* Ring administration against a running router: exactly one of
   --join/--leave/--drain, sent as a single protocol request. *)
let run_fleet_admin connects connect_timeout_ms join leave drain =
  let request =
    match (join, leave, drain) with
    | Some spec, None, None -> (
      match String.index_opt spec '=' with
      | Some i when i > 0 ->
        Ok
          (Service.Protocol.Join
             {
               id = String.sub spec 0 i;
               addr = String.sub spec (i + 1) (String.length spec - i - 1);
             })
      | _ -> Error "fleet-admin: --join expects ID=ADDR")
    | None, Some id, None -> Ok (Service.Protocol.Leave { id })
    | None, None, Some id -> Ok (Service.Protocol.Drain { id })
    | None, None, None -> Error "fleet-admin: expected one of --join/--leave/--drain"
    | _ -> Error "fleet-admin: --join/--leave/--drain are mutually exclusive"
  in
  match (listen_addrs None connects, request) with
  | Error _, _ ->
    prerr_endline "fleet-admin: expected --connect ADDR (the router)";
    2
  | _, Error msg ->
    prerr_endline msg;
    2
  | Ok addrs, Ok request -> (
    let config = { Service.Client.default_config with connect_timeout_ms } in
    match
      Service.Client.request_to ~config addrs (Service.Protocol.print_request request)
    with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok line ->
      print_endline line;
      (match Service.Protocol.field "error" line with Some _ -> 2 | None -> 0))

let run_batch manifest store_dir capacity_mb no_paranoid cert_format budget timeout_ms stats_out
    trace_out faults =
  with_faults faults @@ fun () ->
  match Service.Batch.parse_manifest manifest with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok pairs ->
    let store =
      Service.Store.create ?capacity_bytes:(mb_to_bytes capacity_mb) ~paranoid:(not no_paranoid)
        ~cert_format ~dir:store_dir ()
    in
    let on_result (r : Service.Batch.line_result) =
      Format.printf "%-12s %s%s %s %s%s@." r.Service.Batch.status
        (if r.Service.Batch.cached then "[hit] " else "")
        r.Service.Batch.golden_path r.Service.Batch.revised_path
        (Printf.sprintf "(%.1f ms)" r.Service.Batch.ms)
        (if r.Service.Batch.detail = "" then "" else " " ^ r.Service.Batch.detail)
    in
    let reg = Obs.Registry.create () in
    let s =
      Obs.with_ambient reg (fun () ->
          Service.Batch.run ~store ~engine:(service_engine budget) ?timeout_ms ~on_result pairs)
    in
    export_obs reg ~stats_out ~trace_out;
    Service.Store.flush store;
    Format.printf "batch: %d pairs, %d hits, %d proved, %d cex, %d undecided, %d errors in %.1f ms@."
      s.Service.Batch.total s.Service.Batch.hits s.Service.Batch.proved
      s.Service.Batch.counterexamples s.Service.Batch.undecided s.Service.Batch.errors
      s.Service.Batch.ms;
    Format.printf "store: %a@." Service.Store.pp_stats (Service.Store.stats store);
    if s.Service.Batch.errors > 0 then 2 else 0

let run_fsck store_dir =
  (* [~startup_fsck:false]: run the sweep explicitly so its report can
     be printed instead of being swallowed by [create]. *)
  match Service.Store.create ~startup_fsck:false ~dir:store_dir () with
  | exception (Sys_error msg | Failure msg) ->
    prerr_endline msg;
    2
  | store ->
    let report = Service.Store.fsck store in
    Format.printf "fsck %s: %a@." store_dir Service.Store.pp_fsck report;
    if report.Service.Store.quarantined > 0 then
      Format.printf "quarantined files moved to %s@." (Service.Store.quarantine_dir store);
    Format.printf "store: %a@." Service.Store.pp_stats (Service.Store.stats store);
    0

let run_suite () =
  List.iter
    (fun case ->
      let miter = Circuits.Suite.miter_of case in
      Format.printf "%-16s %a@." case.Circuits.Suite.name Aig.pp_stats miter)
    Circuits.Suite.default;
  0

(* --- cmdliner wiring --- *)

open Cmdliner

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")

let stats_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:
          "Write the aggregated observability registry (counters, gauges, histograms) as flat \
           JSON with a stable key order.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the recorded spans as Chrome trace_event JSON (load in chrome://tracing or \
           Perfetto).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. \
           $(b,store.write:0.05,worker.crash:0.01@seed=42): each named injection point fires \
           with the given probability, drawn from one seeded PRNG stream so a spec replays the \
           same fault schedule.  Points: store.write, store.torn_write, store.corrupt, \
           worker.crash, engine.budget, proof.lift, peer.slow, peer.drop, peer.reset, \
           peer.partition.  Omitted = disabled (the points compile to a single boolean \
           load).")

let cert_format_conv =
  Arg.enum
    [
      ("trace", Service.Store.Trace);
      ("bin", Service.Store.Bin);
      ("bin3", Service.Store.Bin3);
    ]

(* `cec --proof` keeps writing ASCII traces unless asked (they diff and
   grep); the store defaults to the compact binary format. *)
let cert_format_arg ~default ~doc =
  Arg.(value & opt cert_format_conv default & info [ "cert-format" ] ~docv:"FORMAT" ~doc)

let gen_cmd =
  let spec =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"Circuit spec, e.g. add-rc:8.")
  in
  let rewrite =
    Arg.(
      value
      & opt (some string) None
      & info [ "rewrite" ] ~docv:"KIND"
          ~doc:"Apply a function-preserving rewrite: restructure, rebalance, double-negate.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark circuit as ASCII AIGER.")
    Term.(const run_gen $ spec $ rewrite $ output_arg)

let file_pos n doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print AIG size statistics.")
    Term.(const run_stats $ file_pos 0 "AIGER file.")

let miter_cmd =
  Cmd.v
    (Cmd.info "miter" ~doc:"Build the single-output miter of two circuits.")
    Term.(
      const run_miter $ file_pos 0 "Golden AIGER file." $ file_pos 1 "Revised AIGER file."
      $ output_arg)

let dimacs_cmd =
  Cmd.v
    (Cmd.info "dimacs" ~doc:"Export a single-output miter's CNF (with the output unit) in DIMACS.")
    Term.(const run_dimacs $ file_pos 0 "Single-output AIGER file." $ output_arg)

let engine_arg =
  Arg.(
    value & opt string "sweep"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"$(b,mono) (one monolithic SAT call) or $(b,sweep) (SAT sweeping with proof stitching).")

let cec_cmd =
  let sweep_mode =
    Arg.(
      value
      & opt
          (enum [ ("perpair", Sweep.Perpair); ("incr", Sweep.Incremental) ])
          Sweep.default_config.Sweep.mode
      & info [ "sweep" ] ~docv:"MODE"
          ~doc:
            "Sweeping engine mode: $(b,perpair) (a fresh search per equivalence query, on one \
             solver reset between queries) or \
             $(b,incr) (one persistent incremental solver per partition — cone CNF loaded \
             once, queries issued as solver assumptions, learned clauses and proved lemmas \
             carried across queries).")
  in
  let words =
    Arg.(
      value
      & opt int Sweep.default_config.Sweep.words
      & info [ "words" ] ~doc:"Random simulation words.")
  in
  let no_lemmas =
    Arg.(value & flag & info [ "no-lemmas" ] ~doc:"Disable lemma reuse (ablation).")
  in
  let budget =
    Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~doc:"Per-call conflict budget.")
  in
  let proof_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof" ] ~docv:"FILE" ~doc:"Write the trimmed resolution trace here.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ] ~doc:"Re-check the certificate against a rebuilt miter CNF.")
  in
  let cert_format =
    cert_format_arg ~default:Service.Store.Trace
      ~doc:
        "Format for $(b,--proof): $(b,trace) (ASCII resolution trace, the default), $(b,bin) \
         (compact CECB binary certificate with deletion records) or $(b,bin3) (hinted CECB: \
         pivot hints plus a shard table on the prover's partition boundaries, checkable without \
         search and in parallel).  $(b,check-proof) auto-detects all three."
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Partition the miter per output and solve the partitions on $(docv) domains, \
             stitching the per-partition refutations into one certificate.  0 (default) keeps \
             the sequential single-miter engine; any $(docv) >= 1 takes the partitioned path, \
             so aggregate counters are identical for every worker count.")
  in
  Cmd.v
    (Cmd.info "cec" ~doc:"Check two AIGER circuits for equivalence."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Exit codes: 0 equivalent, 1 inequivalent, 2 usage error, 3 certificate rejected, 4 \
              undecided.";
         ])
    Term.(
      const run_cec $ file_pos 0 "Golden AIGER file." $ file_pos 1 "Revised AIGER file."
      $ engine_arg $ words $ no_lemmas $ budget $ sweep_mode $ jobs $ stats_out_arg $ trace_out_arg
      $ proof_out $ cert_format $ validate $ faults_arg)

let check_proof_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Check a hinted ($(b,bin3)) certificate's shards on $(docv) domains, joining at the \
             recorded partition boundaries.  Affects wall time only: verdict, error report and \
             aggregate counters are identical for every $(docv).  Ignored for un-hinted formats.")
  in
  Cmd.v
    (Cmd.info "check-proof"
       ~doc:
         "Validate a certificate against a miter AIGER file.  ASCII resolution traces, CECB \
          binary certificates and hinted ($(b,bin3)) certificates are auto-detected; binary \
          ones are checked in one bounded-memory streaming pass, hinted ones search-free and — \
          with $(b,--jobs) — shard-parallel.")
    Term.(
      const run_check_proof $ file_pos 0 "Single-output miter AIGER file."
      $ file_pos 1 "Certificate file (ASCII trace or CECB binary)."
      $ jobs)

let fraig_cmd =
  let words =
    Arg.(
      value
      & opt int Sweep.default_config.Sweep.words
      & info [ "words" ] ~doc:"Random simulation words.")
  in
  Cmd.v
    (Cmd.info "fraig" ~doc:"Functional reduction: merge SAT-proved equivalent nodes.")
    Term.(const run_fraig $ file_pos 0 "AIGER file." $ words $ output_arg)

let opt_cmd =
  let passes =
    Arg.(
      value
      & opt string "cutsweep,fraig,balance"
      & info [ "passes" ] ~docv:"LIST" ~doc:"Comma-separated passes: cutsweep, fraig, balance, cleanup.")
  in
  let words =
    Arg.(
      value
      & opt int Sweep.default_config.Sweep.words
      & info [ "words" ] ~doc:"Random simulation words for fraig.")
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Run an optimization pipeline over an AIGER file.")
    Term.(const run_opt $ file_pos 0 "AIGER file." $ passes $ words $ output_arg)

let bounded_cmd =
  let frames = Arg.(value & opt int 8 & info [ "frames" ] ~doc:"Unrolling depth.") in
  Cmd.v
    (Cmd.info "bounded"
       ~doc:"Bounded sequential equivalence of two latch-bearing AIGER files (unroll + CEC).")
    Term.(
      const run_bounded $ file_pos 0 "Golden sequential AIGER." $ file_pos 1 "Revised sequential AIGER."
      $ frames $ engine_arg)

let bmc_cmd =
  let frames = Arg.(value & opt int 8 & info [ "frames" ] ~doc:"Unrolling depth.") in
  Cmd.v
    (Cmd.info "bmc"
       ~doc:"Bounded safety: treat every output of a sequential AIGER file as a bad-state flag.")
    Term.(const run_bmc $ file_pos 0 "Sequential AIGER file." $ frames $ engine_arg)

let sat_cmd =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof" ] ~docv:"FILE" ~doc:"Write the trimmed resolution trace here.")
  in
  let rup = Arg.(value & flag & info [ "rup" ] ~doc:"Also verify the derived clauses by RUP.") in
  Cmd.v
    (Cmd.info "sat" ~doc:"Solve a DIMACS CNF with proof logging (exit 10 SAT / 20 UNSAT).")
    Term.(const run_sat $ file_pos 0 "DIMACS CNF file." $ trace_out $ rup)

let suite_cmd =
  Cmd.v
    (Cmd.info "suite" ~doc:"List the built-in benchmark suite with miter sizes.")
    Term.(const run_suite $ const ())

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

let listen_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: a Unix socket path or $(b,HOST:PORT) (port 0 asks the kernel for an \
           ephemeral port).  Repeatable; combines with $(b,--socket).")

let connect_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "connect-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Bound each connect attempt; without it a TCP connect to an unreachable host blocks \
           on the kernel's own (minutes-long) timeout.")

let store_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Certificate store directory (created if absent).")

let capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "capacity-mb" ] ~docv:"MB"
        ~doc:"Store size cap in MiB; least-recently-used certificates are evicted beyond it.")

let no_paranoid_arg =
  Arg.(
    value & flag
    & info [ "no-paranoid" ]
        ~doc:"Trust stored certificates without re-validating them against a rebuilt miter.")

let service_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:
          "Initial conflict budget of a solve's first round (escalated geometrically between \
           rounds).")

let timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-request deadline in milliseconds.")

let serve_cmd =
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains consuming the queue.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Bounded queue capacity; further requests are bounced.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-request logging to stderr.") in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the certification daemon (Unix socket and/or TCP)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Answers line-delimited requests (see $(b,client)) from a persistent \
              content-addressed certificate store, solving each miss with one incremental \
              sweep of the whole miter per budget-escalation round.  Requests run in parallel \
              across $(b,--workers) domains, one request per domain.  \
              Listens on any mix of $(b,--socket) and $(b,--listen) endpoints — a TCP listen \
              makes the daemon a fleet shard behind $(b,route).  SIGINT/SIGTERM or a \
              $(b,shutdown) request drains the queue, persists the store index and exits.";
         ])
    Term.(
      const run_serve $ socket_arg $ listen_arg $ store_arg $ capacity_arg $ no_paranoid_arg
      $ workers $ queue $ service_budget_arg $ timeout_ms_arg $ quiet
      $ stats_out_arg $ trace_out_arg $ faults_arg)

let client_cmd =
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe.") in
  let retries =
    Arg.(
      value & opt int 4
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retries after a transient failure (connection refused, daemon restarting, queue \
             full), with exponential backoff and jitter; 0 fails fast.")
  in
  let retry_delay =
    Arg.(
      value & opt float 25.0
      & info [ "retry-delay-ms" ] ~docv:"MS" ~doc:"Backoff unit for the first retry.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Fetch metrics and store counters as JSON.") in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Fetch the full observability registry as flat JSON (from a router: the aggregated \
             fleet-wide snapshot).")
  in
  let shutdown = Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.") in
  let connect =
    Arg.(
      value
      & opt_all string []
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Daemon or router address (Unix socket path or $(b,HOST:PORT)).  Repeatable: \
             retries rotate through the addresses, failing over across replicas.")
  in
  let golden = Arg.(value & pos 0 (some string) None & info [] ~docv:"GOLDEN" ~doc:"Golden netlist path (as seen by the daemon).") in
  let revised = Arg.(value & pos 1 (some string) None & info [] ~docv:"REVISED" ~doc:"Revised netlist path (as seen by the daemon).") in
  Cmd.v
    (Cmd.info "client" ~doc:"Submit one request to a daemon or a fleet router."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Prints the daemon's one-line JSON response.  Exit codes mirror $(b,cec): 0 \
              equivalent, 1 inequivalent, 2 error, 4 undecided or timed out.";
         ])
    Term.(
      const run_client $ socket_arg $ connect $ connect_timeout_arg $ ping $ stats $ metrics
      $ shutdown $ timeout_ms_arg $ retries $ retry_delay $ golden $ revised)

let route_cmd =
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Router listen address (Unix socket path or $(b,HOST:PORT)).")
  in
  let shard =
    Arg.(
      value
      & opt_all string []
      & info [ "shard" ] ~docv:"[ID=]ADDR"
          ~doc:
            "A shard daemon, repeatable.  $(i,ID) is the stable ring identity (defaults to the \
             address); keep ids fixed across restarts so keys keep their owners.")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"R"
          ~doc:
            "Replica-set size per key: requests fail over across $(docv) shards, and fresh \
             verdicts are replayed to the standby replicas in the background.")
  in
  let vnodes =
    Arg.(
      value
      & opt int Fleet.Ring.default_vnodes
      & info [ "vnodes" ] ~docv:"N" ~doc:"Ring points per shard (balance/monotonicity knob).")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Forwarding worker domains.")
  in
  let max_inflight =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Per-shard in-flight forward cap; a saturated replica set is answered with a \
                typed $(b,overloaded) rejection.")
  in
  let queue =
    Arg.(
      value & opt int 128
      & info [ "queue" ] ~docv:"N" ~doc:"Accepted-connection queue bound; beyond it requests \
                                         are shed immediately.")
  in
  let probe =
    Arg.(
      value & opt float 500.
      & info [ "probe-interval-ms" ] ~docv:"MS" ~doc:"Health probe period per shard.")
  in
  let connect_timeout =
    Arg.(
      value & opt float 250.
      & info [ "connect-timeout-ms" ] ~docv:"MS" ~doc:"Per-forward connect bound.")
  in
  let retry_after =
    Arg.(
      value & opt int 50
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Retry hint carried by $(b,overloaded) rejections.")
  in
  let request_timeout =
    Arg.(
      value & opt float 10_000.
      & info [ "request-timeout-ms" ] ~docv:"MS"
          ~doc:
            "End-to-end budget for requests that carry no $(b,TIMEOUT_MS) of their own; a \
             request whose budget runs out is answered with a typed $(b,deadline_exceeded) \
             error instead of hanging.")
  in
  let probe_timeout =
    Arg.(
      value & opt float 1_000.
      & info [ "probe-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Response deadline per health probe: a shard that accepts the connection but \
             never answers is marked down instead of wedging the prober.")
  in
  let drain_timeout =
    Arg.(
      value & opt float 5_000.
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:"How long $(b,leave) waits for a shard's in-flight work before removing it \
                anyway.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress router logging to stderr.") in
  Cmd.v
    (Cmd.info "route" ~doc:"Run the fleet router over a ring of shard daemons."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Speaks the same line protocol as $(b,serve) and consistent-hashes each \
              $(b,check)'s structural key over the shard ring, so repeated and equivalent \
              requests land on the shard that already holds the certificate.  Failed shards \
              are probed, skipped and failed over; $(b,client --metrics) against the router \
              returns the merged fleet-wide snapshot.  The ring reconfigures live via \
              $(b,fleet-admin) (join/leave/drain) — no restart, observable through the \
              $(b,epoch) and $(b,moved_fraction) fields of $(b,client --stats).";
         ])
    Term.(
      const run_route $ listen $ shard $ replicas $ vnodes $ workers $ max_inflight $ queue
      $ probe $ connect_timeout $ retry_after $ request_timeout $ probe_timeout $ drain_timeout
      $ quiet $ stats_out_arg)

let fleet_admin_cmd =
  let connect =
    Arg.(
      value
      & opt_all string []
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Router address (Unix socket path or $(b,HOST:PORT)).")
  in
  let join =
    Arg.(
      value
      & opt (some string) None
      & info [ "join" ] ~docv:"ID=ADDR"
          ~doc:
            "Add shard $(i,ID) (listening on $(i,ADDR)) to the ring.  The router warms the \
             new shard up by replaying recently routed keys it now owns.")
  in
  let leave =
    Arg.(
      value
      & opt (some string) None
      & info [ "leave" ] ~docv:"ID"
          ~doc:
            "Drain shard $(i,ID), wait for its in-flight work (bounded by the router's \
             $(b,--drain-timeout-ms)), then remove it from the ring.")
  in
  let drain =
    Arg.(
      value
      & opt (some string) None
      & info [ "drain" ] ~docv:"ID"
          ~doc:
            "Flip shard $(i,ID) to replica-only: it stops receiving forwards and replication \
             but keeps its ring arc, so a later $(b,--join) is cheap.")
  in
  Cmd.v
    (Cmd.info "fleet-admin" ~doc:"Reconfigure a running fleet router's ring."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Sends one ring-administration request to a router started with $(b,route) and \
              prints its one-line JSON response (new epoch, sampled moved-key fraction, \
              warm-up count).  Exit code 0 on an $(b,ok) response, 2 otherwise.";
         ])
    Term.(const run_fleet_admin $ connect $ connect_timeout_arg $ join $ leave $ drain)

let batch_cmd =
  let manifest =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:"Manifest file: one \"GOLDEN REVISED\" pair per line, # comments allowed; relative \
                paths resolve against the manifest's directory.")
  in
  let cert_format =
    cert_format_arg ~default:Service.Store.Bin3
      ~doc:
        "Body format for newly stored certificates: $(b,bin3) (hinted CECB binary, the \
         default), $(b,bin) (compact CECB binary without hints) or $(b,trace) (ASCII \
         resolution trace).  Reading understands all three."
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Check a manifest of pairs against a certificate store, no daemon."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Offline mode: shares the store format with $(b,serve), so a batch run warms the \
              cache for a later daemon (and vice versa).  Pairs run one after another; each \
              miss is solved like $(b,serve) solves it, with one incremental sweep of the whole \
              miter per budget-escalation round.";
         ])
    Term.(
      const run_batch $ manifest $ store_arg $ capacity_arg $ no_paranoid_arg $ cert_format
      $ service_budget_arg $ timeout_ms_arg $ stats_out_arg $ trace_out_arg $ faults_arg)

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck" ~doc:"Check and repair a certificate store directory."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Sweeps crash debris: orphaned temporary files and truncated/garbage certificate \
              objects are moved to the store's $(b,quarantine/) directory (binary bodies are \
              re-validated with the streaming proof checker), valid objects missing from the \
              index are re-adopted, and index entries whose object vanished are dropped.  The \
              daemon runs the same sweep at startup.";
         ])
    Term.(const run_fsck $ store_arg)

let commands =
  [
    gen_cmd;
    stats_cmd;
    miter_cmd;
    dimacs_cmd;
    cec_cmd;
    check_proof_cmd;
    fraig_cmd;
    opt_cmd;
    bounded_cmd;
    bmc_cmd;
    sat_cmd;
    suite_cmd;
    serve_cmd;
    client_cmd;
    route_cmd;
    fleet_admin_cmd;
    batch_cmd;
    fsck_cmd;
  ]

let main_cmd =
  Cmd.group
    (Cmd.info "cec_tool" ~version:"1.0.0"
       ~doc:"Combinational equivalence checking with resolution proofs.")
    commands

let () =
  (* Real wall-clock timelines for spans and latency histograms; the
     dependency-free Obs default is processor time. *)
  Obs.Clock.set Unix.gettimeofday;
  (* An unknown subcommand enumerates the full command list and exits 2
     (cmdliner's own message reserves exit 124 for CLI parse errors and
     its suggestion list elides non-near-miss names).  Unambiguous
     prefixes still reach cmdliner, which accepts them. *)
  let names = List.map Cmd.name commands in
  (match Array.to_list Sys.argv with
  | _ :: arg :: _
    when String.length arg > 0
         && arg.[0] <> '-'
         && not (List.exists (fun n -> String.starts_with ~prefix:arg n) names) ->
    Printf.eprintf "cec_tool: unknown command %S.\nCommands:\n  %s\n" arg
      (String.concat "\n  " names);
    exit 2
  | _ -> ());
  exit (Cmd.eval' main_cmd)
