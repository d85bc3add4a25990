(* The fleet under test: two [cec_tool serve] shards behind one
   [cec_tool route], each a separate process on a Unix socket in the
   run's temp dir.  No fault spec is installed. *)

type daemon = {
  pid : int;
  sock : string;
}

type t = {
  shards : daemon array;
  router : daemon;
  stores : string array;
  stats_files : string list;  (** [--stats-out] files, if written *)
}

(* Every daemon ever started, so any exit path can stop it. *)
let live : daemon list ref = ref []

let client = { Service.Client.default_config with Service.Client.retries = 0 }

let request sock line = Service.Client.request_to ~config:client [ Service.Addr.Unix_path sock ] line

let field_int name line = Option.bind (Service.Protocol.field name line) int_of_string_opt

(* Readiness: [ping] until it answers, for at most 20 s. *)
let await d =
  let deadline = Clock.now () +. 20. in
  let rec go () =
    match request d.sock (Service.Protocol.print_request Service.Protocol.Ping) with
    | Ok line when Service.Protocol.field "ok" line = Some "true" -> ()
    | _ when Clock.now () > deadline -> failwith ("daemon did not answer ping on " ^ d.sock)
    | _ ->
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let start_daemon tool args sock =
  let d = { pid = Proc.spawn tool args; sock } in
  live := d :: !live;
  d

(* [stats]: every daemon writes [--stats-out] at shutdown. *)
let start ~tool ~dir ~stats =
  let path name = Filename.concat dir name in
  let stats_files = ref [] in
  let stats_out name =
    if not stats then []
    else begin
      stats_files := path name :: !stats_files;
      [ "--stats-out"; path name ]
    end
  in
  let stores = Array.init 2 (fun i -> path (Printf.sprintf "store%d" i)) in
  let shards =
    Array.mapi
      (fun i store ->
        let sock = path (Printf.sprintf "s%d.sock" i) in
        start_daemon tool
          ([ "serve"; "--socket"; sock; "--store"; store; "--workers"; "1"; "--quiet" ]
          @ stats_out (Printf.sprintf "s%d.stats.json" i))
          sock)
      stores
  in
  Array.iter await shards;
  (* One forwarding worker: a single waiting caller never needs two. *)
  let rsock = path "router.sock" in
  let router =
    start_daemon tool
      ([ "route"; "--listen"; rsock; "--workers"; "1"; "--quiet" ]
      @ List.concat
          (Array.to_list
             (Array.mapi (fun i d -> [ "--shard"; Printf.sprintf "s%d=%s" i d.sock ]) shards))
      @ stats_out "router.stats.json")
      rsock
  in
  await router;
  { shards; router; stores; stats_files = !stats_files }

(* Sum of the daemons' peak resident sets, read before shutdown. *)
let peak_rss_mb t =
  Array.fold_left
    (fun acc d -> acc +. Option.value (Proc.vm_hwm_mb d.pid) ~default:0.)
    0. (Array.append [| t.router |] t.shards)

(* Store counters summed over the shards ([stats] request). *)
let store_stats t =
  let names =
    [ "store_hits"; "store_misses"; "store_entries"; "store_bytes"; "store_corrupt"; "store_write_failures" ]
  in
  let sum = Hashtbl.create 8 in
  Array.iter
    (fun d ->
      match request d.sock (Service.Protocol.print_request Service.Protocol.Stats) with
      | Error msg -> failwith ("stats: " ^ msg)
      | Ok line ->
        List.iter
          (fun n ->
            let v = Option.value (field_int n line) ~default:0 in
            Hashtbl.replace sum n (v + Option.value (Hashtbl.find_opt sum n) ~default:0))
          names)
    t.shards;
  fun name -> Option.value (Hashtbl.find_opt sum name) ~default:0

let reap_within d seconds =
  let deadline = Clock.now () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (fun l -> l.pid <> d.pid) !live

(* [shutdown] every live daemon, newest first (the router before its
   shards, so no forward races a stopping shard), then reap each; a
   daemon that does not exit within 10 s is killed.  Safe to call on
   any exit path. *)
let stop_all () =
  List.iter
    (fun d ->
      ignore (request d.sock (Service.Protocol.print_request Service.Protocol.Shutdown));
      reap_within d 10.)
    !live
