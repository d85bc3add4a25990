module Cec = Cec_core.Cec
module P = Protocol

type config = {
  listen : Addr.t list;
  store_dir : string;
  store_capacity : int option;
  paranoid : bool;
  workers : int;
  queue_capacity : int;
  engine : Engine.config;
  default_timeout_ms : int option;
  log : bool;
  clock : unit -> float;
  stats_out : string option;
  trace_out : string option;
  on_listen : Addr.t list -> unit;
}

let default_config ~socket_path ~store_dir =
  {
    listen = [ Addr.Unix_path socket_path ];
    store_dir;
    store_capacity = None;
    paranoid = true;
    workers = 1;
    queue_capacity = 64;
    engine = Engine.default_config;
    default_timeout_ms = None;
    log = true;
    clock = Unix.gettimeofday;
    stats_out = None;
    trace_out = None;
    on_listen = ignore;
  }

(* One accepted [check] request, parked on the bounded queue.  The
   worker that pops it owns (and closes) the connection. *)
type job = {
  golden : Aig.t;
  revised : Aig.t;
  key : Key.t;
  deadline : float option;
  fd : Unix.file_descr;
  mutable retries : int;
}

type state = {
  cfg : config;
  store : Store.t;
  metrics : Metrics.t;
  queue : job Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable draining : bool;
  stop : bool Atomic.t;
  (* [peer.partition] black-holes the daemon: until this instant every
     accepted connection is parked unanswered (and unread).  Only the
     accept-loop domain touches these, so no lock. *)
  mutable partition_until : float;
  mutable parked : (float * Unix.file_descr) list;
}

(* --- framing (EINTR/partial-IO handling lives in {!Wire}) --- *)

let max_request_bytes = 65536

(* A client that connects and then never sends a full line must not
   wedge the accept loop forever. *)
let request_read_timeout = 10.0

let read_line_fd fd = Wire.read_line ~max_bytes:max_request_bytes fd

let read_request fd =
  Wire.read_line ~max_bytes:max_request_bytes
    ~deadline:(Unix.gettimeofday () +. request_read_timeout)
    fd

(* Best-effort response write: a vanished client (EPIPE/ECONNRESET)
   is not the server's problem.  The [peer.drop]/[peer.reset] fault
   points model the network failing mid-response: drop truncates the
   reply and shuts the stream down, reset arms SO_LINGER(0) and skips
   the write so the caller's close turns into an RST.  Neither closes
   the fd — that stays with the caller, as on the healthy path. *)
let send fd line =
  try
    if Fault.fire "peer.drop" then begin
      let framed = line ^ "\n" in
      Wire.write_all fd (String.sub framed 0 (String.length framed / 2));
      Unix.shutdown fd Unix.SHUTDOWN_ALL
    end
    else if Fault.fire "peer.reset" then Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
    else Wire.write_line fd line
  with
  | Unix.Unix_error
      ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN | Unix.EINVAL | Unix.ENOTSOCK
        | Unix.EOPNOTSUPP ),
        _,
        _ ) ->
    ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- request handling --- *)

let load_netlist path =
  try
    if Filename.check_suffix path ".blif" then Ok (Aig.Blif.read_file path)
    else Ok (Aig.Aiger.read_file path)
  with
  | Aig.Aiger.Parse_error msg | Aig.Blif.Parse_error msg ->
    Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg

(* A reply carries a verdict's kind and witness, never its
   certificate, so a store hit (which skips the decode) and a solve
   share one shape: [None] is undecided. *)
let hit_of_verdict = function
  | Cec.Equivalent _ -> Some Store.Equivalent
  | Cec.Inequivalent cex -> Some (Store.Inequivalent cex)
  | Cec.Undecided -> None

let status_of_verdict ?degraded ~timed_out verdict =
  match (degraded, verdict) with
  | Some _, None -> "uncertified"
  | _, Some Store.Equivalent -> "equivalent"
  | _, Some (Store.Inequivalent _) -> "inequivalent"
  | _, None -> if timed_out then "timeout" else "undecided"

let outcome_of_verdict ?degraded ~timed_out verdict =
  match (degraded, verdict) with
  | Some _, None -> Metrics.Uncertified
  | _, Some Store.Equivalent -> Metrics.Proved
  | _, Some (Store.Inequivalent _) -> Metrics.Counterexample
  | _, None -> if timed_out then Metrics.Timeout else Metrics.Undecided

let check_response ?degraded ~key ~cached ~ms ~conflicts ~timed_out verdict =
  let base =
    [
      ("status", P.String (status_of_verdict ?degraded ~timed_out verdict));
      ("cached", P.Bool cached);
      ("key", P.String (Key.to_hex key));
      ("conflicts", P.Int conflicts);
      ("ms", P.Float ms);
    ]
  in
  let extra =
    match verdict with
    | Some (Store.Inequivalent cex) ->
      [
        ( "cex",
          P.String (String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0')) );
      ]
    | Some Store.Equivalent | None -> []
  in
  let reason =
    match (degraded, verdict) with
    | Some r, None -> [ ("reason", P.String r) ]
    | _ -> []
  in
  P.to_json (base @ extra @ reason)

let log st fmt =
  if st.cfg.log then Format.eprintf ("cecd: " ^^ fmt ^^ "@.") else Format.ifprintf Format.err_formatter fmt

let ms_since st t0 = 1000.0 *. (st.cfg.clock () -. t0)

let process st job =
  let t0 = st.cfg.clock () in
  (* Server-layer crash point: fires after the job left the queue, so
     the supervised re-enqueue/typed-failure path gets exercised. *)
  Fault.inject "worker.crash";
  let expired = match job.deadline with Some d -> t0 >= d | None -> false in
  if expired then begin
    Metrics.record_cancelled st.metrics;
    log st "cancelled %s (deadline expired in queue)" (Key.to_hex job.key);
    send job.fd
      (P.to_json
         [
           ("status", P.String "timeout");
           ("cached", P.Bool false);
           ("key", P.String (Key.to_hex job.key));
           ("conflicts", P.Int 0);
           ("ms", P.Float 0.0);
         ])
  end
  else
    match Store.lookup st.store job.key ~golden:job.golden ~revised:job.revised with
    | Some _ as verdict ->
      let ms = ms_since st t0 in
      Metrics.record st.metrics (outcome_of_verdict ~timed_out:false verdict) ~cached:true ~ms;
      log st "hit %s (%s, %.2fms)" (Key.to_hex job.key)
        (status_of_verdict ~timed_out:false verdict)
        ms;
      send job.fd (check_response ~key:job.key ~cached:true ~ms ~conflicts:0 ~timed_out:false verdict)
    | None -> (
      match
        Engine.solve ~clock:st.cfg.clock ?deadline:job.deadline st.cfg.engine job.golden
          job.revised
      with
      | exception Invalid_argument msg ->
        Metrics.record_error st.metrics;
        send job.fd (P.error_response msg)
      | result ->
        let degraded = result.Engine.degraded in
        if degraded = None then Store.store st.store job.key result.Engine.verdict;
        let ms = ms_since st t0 in
        let verdict = hit_of_verdict result.Engine.verdict in
        Metrics.record st.metrics
          (outcome_of_verdict ?degraded ~timed_out:result.Engine.timed_out verdict)
          ~cached:false ~ms;
        log st "solved %s (%s, %d conflicts, %.2fms)" (Key.to_hex job.key)
          (status_of_verdict ?degraded ~timed_out:result.Engine.timed_out verdict)
          result.Engine.conflicts ms;
        send job.fd
          (check_response ?degraded ~key:job.key ~cached:false ~ms
             ~conflicts:result.Engine.conflicts ~timed_out:result.Engine.timed_out verdict))

(* Worker supervision: a job whose [process] raises is re-enqueued
   once (any worker may pick it up); a second crash answers the client
   with a typed [worker_crashed] error — the connection is never left
   hanging, and one poisoned job can never wedge the pool. *)
let rec worker st =
  Mutex.lock st.lock;
  while Queue.is_empty st.queue && not st.draining do
    Condition.wait st.nonempty st.lock
  done;
  if Queue.is_empty st.queue then Mutex.unlock st.lock (* draining and empty: exit *)
  else begin
    let job = Queue.pop st.queue in
    Mutex.unlock st.lock;
    (match process st job with
    | () -> close_quietly job.fd
    | exception e ->
      if job.retries = 0 then begin
        job.retries <- 1;
        Metrics.record_retry st.metrics;
        log st "job %s crashed (%s), re-enqueued" (Key.to_hex job.key) (Printexc.to_string e);
        (* Re-enqueue past the capacity check: bouncing an accepted job
           would turn a transient fault into a spurious rejection. *)
        Mutex.lock st.lock;
        Queue.push job st.queue;
        Condition.signal st.nonempty;
        Mutex.unlock st.lock
      end
      else begin
        Metrics.record_error st.metrics;
        log st "job %s crashed twice (%s): failing" (Key.to_hex job.key) (Printexc.to_string e);
        send job.fd (P.error_response ~code:"worker_crashed" (Printexc.to_string e));
        close_quietly job.fd
      end);
    worker st
  end

(* Outer supervisor: [worker] itself is not supposed to raise (crashes
   are absorbed per-job above), but if it ever does — a bug in the
   bookkeeping, an I/O error outside the per-job handler — the domain
   restarts its loop instead of silently shrinking the pool. *)
let supervised_worker st =
  let rec go () =
    try worker st
    with e ->
      Metrics.record_worker_restart st.metrics;
      log st "worker loop crashed (%s), restarting" (Printexc.to_string e);
      go ()
  in
  go ()

let stats_response st =
  P.to_json (Metrics.fields (Metrics.snapshot st.metrics) @ Store.fields (Store.stats st.store))

(* Full observability snapshot, as one line of the {!Obs.Export} flat
   JSON shape.  The fleet router polls this and folds shard snapshots
   together with the associative [Obs] merge, so everything exported
   here must be meaningfully summable across shards: service.* request
   counters and latency histograms are, and the store counters are
   exported as counters too (shard stores are disjoint, so entry/byte
   totals across the fleet are sums). *)
let metrics_response st =
  let reg = Obs.Registry.create () in
  Metrics.merge_registry_into st.metrics ~into:reg;
  let s = Store.stats st.store in
  List.iter
    (fun (name, value) ->
      Obs.Counter.add (Obs.Registry.counter reg ("service." ^ name)) value)
    [
      ("store_entries", s.Store.entries);
      ("store_bytes", s.Store.bytes);
      ("store_stores", s.Store.stores);
      ("store_evictions", s.Store.evictions);
      ("store_corrupt", s.Store.corrupt);
      ("store_write_failures", s.Store.write_failures);
    ];
  String.trim (Obs.Export.stats_json reg)

(* How long one [peer.partition] firing keeps the daemon black-holed. *)
let partition_window = 0.5

(* Parked connections whose window passed are finally closed (the peer
   sees an EOF with no response — exactly a healed partition). *)
let sweep_parked st =
  let now = Unix.gettimeofday () in
  let live, expired = List.partition (fun (until, _) -> until > now) st.parked in
  st.parked <- live;
  List.iter (fun (_, fd) -> close_quietly fd) expired

(* Parse and dispatch one connection's request.  Everything answerable
   without solving is answered inline; [check] jobs go to the queue,
   which then owns the connection. *)
let handle_connection st fd =
  (* [peer.slow] models a stalling client on the accept path; the
     daemon must stay responsive and drain cleanly regardless. *)
  if Fault.fire "peer.slow" then Unix.sleepf 0.05;
  sweep_parked st;
  if Fault.fire "peer.partition" then
    st.partition_until <- Unix.gettimeofday () +. partition_window;
  if Unix.gettimeofday () < st.partition_until then
    (* Black-holed: the connection is accepted but never read nor
       answered until the window passes.  Clients only escape via
       their own deadlines — which is the point. *)
    st.parked <- (st.partition_until, fd) :: st.parked
  else
  match read_request fd with
  | Error msg ->
    send fd (P.error_response msg);
    close_quietly fd
  | Ok line -> (
    Metrics.incr_requests st.metrics;
    match P.parse_request line with
    | Error msg ->
      Metrics.record_error st.metrics;
      send fd (P.error_response msg);
      close_quietly fd
    | Ok P.Ping ->
      send fd (P.to_json [ ("ok", P.Bool true) ]);
      close_quietly fd
    | Ok P.Stats ->
      send fd (stats_response st);
      close_quietly fd
    | Ok P.Metrics ->
      send fd (metrics_response st);
      close_quietly fd
    | Ok P.Shutdown ->
      log st "shutdown requested, draining";
      Atomic.set st.stop true;
      send fd (P.to_json [ ("ok", P.Bool true); ("draining", P.Bool true) ]);
      close_quietly fd
    | Ok (P.Join _ | P.Leave _ | P.Drain _) ->
      (* Ring membership lives in the router; a shard daemon has no
         ring to reconfigure. *)
      Metrics.record_error st.metrics;
      send fd (P.error_response ~code:"router_only" "ring admin requests go to the router");
      close_quietly fd
    | Ok (P.Check { golden; revised; timeout_ms }) -> (
      match (load_netlist golden, load_netlist revised) with
      | Error msg, _ | _, Error msg ->
        Metrics.record_error st.metrics;
        send fd (P.error_response msg);
        close_quietly fd
      | Ok a, Ok b ->
        if Aig.num_inputs a <> Aig.num_inputs b || Aig.num_outputs a <> Aig.num_outputs b
        then begin
          Metrics.record_error st.metrics;
          send fd (P.error_response "interface mismatch between the two netlists");
          close_quietly fd
        end
        else begin
          let a = Key.normalize a and b = Key.normalize b in
          let key = Key.of_pair a b in
          let timeout = match timeout_ms with Some _ as t -> t | None -> st.cfg.default_timeout_ms in
          let deadline =
            Option.map (fun ms -> st.cfg.clock () +. (float_of_int ms /. 1000.0)) timeout
          in
          Mutex.lock st.lock;
          if Queue.length st.queue >= max 1 st.cfg.queue_capacity then begin
            Mutex.unlock st.lock;
            Metrics.record_rejected st.metrics;
            send fd (P.error_response ~code:"queue_full" "queue full");
            close_quietly fd
          end
          else begin
            Queue.push { golden = a; revised = b; key; deadline; fd; retries = 0 } st.queue;
            Condition.signal st.nonempty;
            Mutex.unlock st.lock
          end
        end))

(* --- life cycle --- *)

(* {!Addr.bind_listen} probes stale Unix sockets before unlinking
   (a live daemon is a hard error) and reports the kernel-assigned
   port back for TCP port-0 binds. *)
let bind_addr addr = Addr.bind_listen addr

let run cfg =
  let store =
    Store.create ?capacity_bytes:cfg.store_capacity ~paranoid:cfg.paranoid ~dir:cfg.store_dir ()
  in
  let st =
    {
      cfg;
      store;
      metrics = Metrics.create ();
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      draining = false;
      stop = Atomic.make false;
      partition_until = 0.0;
      parked = [];
    }
  in
  if cfg.listen = [] then invalid_arg "Server.run: empty listen list";
  (* Bind everything before serving anything: a half-bound daemon that
     already answers on one endpoint but will die on the next bind
     would look like a flapping shard to the router. *)
  let listeners =
    List.fold_left
      (fun bound addr ->
        match bind_addr addr with
        | fd_addr -> fd_addr :: bound
        | exception e ->
          List.iter (fun (fd, _) -> close_quietly fd) bound;
          raise e)
      [] cfg.listen
    |> List.rev
  in
  let listen_fds = List.map fst listeners in
  cfg.on_listen (List.map snd listeners);
  let request_stop _ = Atomic.set st.stop true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (* Each worker domain records observability (solver, sweep, proof
     counters) into its own registry; the registries are merged into
     the metrics registry after the joins, so the exported stats cover
     the whole pipeline, not just request-level counters. *)
  let worker_regs = Array.init (max 1 cfg.workers) (fun _ -> Obs.Registry.create ()) in
  let workers =
    Array.init (max 1 cfg.workers) (fun i ->
        Domain.spawn (fun () -> Obs.with_ambient worker_regs.(i) (fun () -> supervised_worker st)))
  in
  log st "listening on %s (store %s, %d worker(s))"
    (String.concat ", " (List.map (fun (_, a) -> Addr.to_string a) listeners))
    cfg.store_dir (Array.length workers);
  (* The accept loop must survive signals: SIGINT/SIGTERM land here
     (the handler only flips [stop], so select/accept resume with
     EINTR), and an aborted handshake surfaces as ECONNABORTED —
     neither may kill the daemon.  Handled uniformly for every
     listening descriptor. *)
  while not (Atomic.get st.stop) do
    match Unix.select listen_fds [] [] 0.1 with
    | [], _, _ -> ()
    | ready, _, _ ->
      List.iter
        (fun (listen_fd, addr) ->
          if List.memq listen_fd ready then
            match Unix.accept listen_fd with
            | fd, _ -> (
              (match addr with
              | Addr.Tcp _ -> (
                (* One-line request/response: never wait on Nagle. *)
                try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
              | Addr.Unix_path _ -> ());
              try handle_connection st fd
              with e ->
                Metrics.record_error st.metrics;
                send fd (P.error_response (Printexc.to_string e));
                close_quietly fd)
            | exception
                Unix.Unix_error
                  ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
              ())
        listeners
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter close_quietly listen_fds;
  (* Connections still parked by a partition window get their EOF now. *)
  List.iter (fun (_, fd) -> close_quietly fd) st.parked;
  st.parked <- [];
  (* Drain: workers finish every queued job, then exit. *)
  Mutex.lock st.lock;
  st.draining <- true;
  Condition.broadcast st.nonempty;
  Mutex.unlock st.lock;
  Array.iter Domain.join workers;
  let reg = Metrics.registry st.metrics in
  Array.iter (fun r -> Obs.Registry.merge_into ~into:reg r) worker_regs;
  let write_file path data = Out_channel.with_open_text path (fun oc -> output_string oc data) in
  Option.iter (fun path -> write_file path (Obs.Export.stats_json reg)) cfg.stats_out;
  Option.iter (fun path -> write_file path (Obs.Export.trace_json reg)) cfg.trace_out;
  Store.flush store;
  List.iter
    (function
      | _, Addr.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | _, Addr.Tcp _ -> ())
    listeners;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigpipe old_pipe;
  let snapshot = Metrics.snapshot st.metrics in
  let store_stats = Store.stats store in
  if cfg.log then begin
    Format.eprintf "cecd: shutdown metrics: %a@." Metrics.pp snapshot;
    Format.eprintf "cecd: store: %a@." Store.pp_stats store_stats
  end;
  (snapshot, store_stats)

let request_addr addr line =
  match Addr.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" (Addr.to_string addr) (Unix.error_message e))
  | fd ->
    let result =
      send fd line;
      read_line_fd fd
    in
    close_quietly fd;
    result

let request ~socket_path line = request_addr (Addr.Unix_path socket_path) line
