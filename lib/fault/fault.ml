exception Injected of string

type spec = { points : (string * float) list; seed : int }

(* Installed state.  [enabled] is the fast path: [fire] reads it once
   and returns when no spec is installed, so disabled builds pay a
   single atomic load per injection point.  The spec and its RNG live
   behind [lock] because worker domains draw concurrently and the
   splitmix64 state is mutable. *)
let enabled = Atomic.make false
let lock = Mutex.create ()
let installed : (spec * Support.Rng.t) option ref = ref None

let known_points =
  [
    ("store.write", "I/O error while writing a certificate object (orphan tmp file)");
    ("store.torn_write", "crash after publishing a truncated certificate object");
    ("store.corrupt", "bit-flip in certificate bytes read back from the store");
    ("worker.crash", "uncaught exception in a worker domain mid-job");
    ("engine.budget", "solver budget blowout: round aborted before completion");
    ("peer.slow", "peer stalls: artificial delay handling a connection");
    ("peer.drop", "peer closes the connection mid-response (truncated reply)");
    ("peer.reset", "peer resets the connection (ECONNRESET) instead of replying");
    ("peer.partition", "peer black-holed: connections accepted but never answered for a window");
  ]

let valid_point name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' || c = '_' || c = '-')
       name

let parse s =
  let s = String.trim s in
  let body, seed =
    match String.index_opt s '@' with
    | None -> (s, Ok 0)
    | Some i ->
        let tail = String.sub s (i + 1) (String.length s - i - 1) in
        let seed =
          match String.split_on_char '=' tail with
          | [ "seed"; v ] -> (
              match int_of_string_opt (String.trim v) with
              | Some n -> Ok n
              | None -> Error (Printf.sprintf "fault spec: bad seed %S" v))
          | _ -> Error (Printf.sprintf "fault spec: expected @seed=N, got %S" tail)
        in
        (String.sub s 0 i, seed)
  in
  match seed with
  | Error _ as e -> e
  | Ok seed ->
      let rec points acc = function
        | [] -> Ok (List.rev acc)
        | part :: rest -> (
            match String.index_opt part ':' with
            | None -> Error (Printf.sprintf "fault spec: expected point:rate, got %S" part)
            | Some i -> (
                let name = String.trim (String.sub part 0 i) in
                let rate_s = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
                if not (valid_point name) then
                  Error (Printf.sprintf "fault spec: bad point name %S" name)
                else
                  match float_of_string_opt rate_s with
                  | None -> Error (Printf.sprintf "fault spec: bad rate %S for %s" rate_s name)
                  | Some r when r < 0.0 || r > 1.0 || Float.is_nan r ->
                      Error (Printf.sprintf "fault spec: rate %g for %s outside [0,1]" r name)
                  | Some r -> points ((name, r) :: acc) rest))
      in
      let parts = String.split_on_char ',' body |> List.map String.trim in
      if parts = [ "" ] then Error "fault spec: empty"
      else (
        match points [] parts with
        | Error _ as e -> e
        | Ok pts -> Ok { points = pts; seed })

let always ?(seed = 0) point = { points = [ (point, 1.0) ]; seed }

let to_string { points; seed } =
  let pts = List.map (fun (p, r) -> Printf.sprintf "%s:%g" p r) points in
  Printf.sprintf "%s@seed=%d" (String.concat "," pts) seed

let install spec =
  Mutex.protect lock (fun () ->
      installed := Some (spec, Support.Rng.create spec.seed);
      Atomic.set enabled true)

let disable () =
  Mutex.protect lock (fun () ->
      installed := None;
      Atomic.set enabled false)

let active () = Atomic.get enabled

let with_spec spec f =
  let previous = Mutex.protect lock (fun () -> !installed) in
  install spec;
  Fun.protect
    ~finally:(fun () ->
      match previous with Some (prev, _) -> install prev | None -> disable ())
    f

let fire point =
  if not (Atomic.get enabled) then false
  else
    let fired =
      Mutex.protect lock (fun () ->
          match !installed with
          | None -> false
          | Some (spec, rng) -> (
              match List.assoc_opt point spec.points with
              | None -> false
              | Some rate -> rate > 0.0 && Support.Rng.float rng < rate))
    in
    if fired then
      Obs.Counter.incr (Obs.Registry.counter (Obs.ambient ()) ("fault.injected." ^ point));
    fired

let inject point = if fire point then raise (Injected point)
