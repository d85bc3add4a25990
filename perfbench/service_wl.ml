(* serve and ingest: ROADMAP path 2, client -> router -> shard -> store,
   against two [cec_tool serve --workers 1] shards behind [cec_tool
   route], each its own process.

   Both workloads start from the same background population: tiny
   pairs batch-solved into the shard stores before the daemons start,
   because every hit and every store rewrites the whole store index and
   an empty store would hide that cost. *)

module Rng = Support.Rng
module Cec = Cec_core.Cec
module Sweep = Cec_core.Sweep
module P = Service.Protocol

type kind =
  [ `Serve
  | `Ingest
  ]

(* Requests (serve) and misses (ingest) per second of a pass on the
   reference host (2 vCPU); see [Prove.nominal_ops_per_s]. *)
let nominal_requests_per_s = 115.
let nominal_misses_per_s = 25.

let background_per_shard = 250

(* Served keys, in zipf-rank order: the rank of a key is its stratum
   position, so every seed has the same popularity profile over the
   same families, sizes and architectures. *)
let served_strata =
  Gen.blocks 2
    Gen.
      [
        (Alu, 4); (Multiplier, 3); (Comparator, 16); (Prefix, 8); (Adder, 8); (Shifter, 3);
        (Random_logic, 8); (Alu, 8);
      ]

let zipf_s = 1.1

(* Fresh pairs for ingest: small sizes, so a miss costs a solve of a
   few tens of milliseconds and a pass has several hundred of them,
   enough for a p99 on the few slowest.  Every round has the same
   strata, and at least four blocks, so a pass has over 100 misses for
   its p90. *)
let fresh_strata ~seconds =
  let per_round = seconds *. nominal_misses_per_s /. float_of_int (8 * Common.rounds) in
  let blocks = max 4 (int_of_float (Float.round per_round)) in
  List.concat
    (List.init Common.rounds (fun _ ->
         Gen.blocks blocks
           Gen.
             [
               (Adder, 6); (Prefix, 8); (Multiplier, 3); (Comparator, 8); (Alu, 4); (Shifter, 2);
               (Random_logic, 8); (Adder, 4);
             ]))

(* [n] pairs over a pool of sixteen tiny random circuits and their
   restructured copies: pair [(i, j)] is circuit [i] against copy [j],
   equivalent when [i = j].  Every pair is a store entry, from only 32
   files. *)
let background rng n =
  let pool =
    Array.init 16 (fun _ ->
        let g =
          Circuits.Random_aig.generate (Rng.split rng) ~num_inputs:8 ~num_ands:24 ~num_outputs:2
        in
        (g, Gen.restructure rng g))
  in
  Array.init n (fun k ->
      let i = k mod 16 and j = (k / 16) mod 16 in
      { Gen.name = "bg"; golden = fst pool.(i); revised = snd pool.(j); equivalent = i = j })

type op = {
  pair : Gen.pair;
  golden : string;
  revised : string;
  line : string;  (** the [check] request *)
}

type inputs = {
  shard_manifests : string array;
  pairs : op array;
      (** serve: the served keys, in zipf-rank order; ingest: pairs the
          fleet has never seen *)
}

let ops dir tag pairs =
  Array.map2
    (fun pair (golden, revised) ->
      { pair; golden; revised; line = P.print_request (P.Check { golden; revised; timeout_ms = None }) })
    pairs (Gen.write dir tag pairs)

let write_inputs kind ~dir ~seed ~seconds =
  let rng = Rng.create seed in
  let shard_manifests =
    Array.init 2 (fun i ->
        let pairs = background (Rng.split rng) background_per_shard in
        let paths = Gen.write dir (Printf.sprintf "bg%d-" i) pairs in
        let manifest = Filename.concat dir (Printf.sprintf "bg%d.manifest" i) in
        Out_channel.with_open_bin manifest (fun oc ->
            Array.iter
              (fun (g, r) -> Printf.fprintf oc "%s %s\n" (Filename.basename g) (Filename.basename r))
              paths);
        manifest)
  in
  let strata = match kind with `Serve -> served_strata | `Ingest -> fresh_strata ~seconds in
  { shard_manifests; pairs = ops dir "k" (Array.of_list (Gen.generated rng strata)) }

type reply = {
  ok : bool;
  ms : float;  (** send to checked answer *)
  server_ms : float;  (** the reply's [ms]: store lookup plus any solve *)
  cached : bool;
  status : string;
  key : string;
  detail : string;
}

let expected_status (p : Gen.pair) = if p.Gen.equivalent then "equivalent" else "inequivalent"

(* One request through the router; [ok] when the typed status is the
   pair's verdict and the hit/miss is the one [cached] expects. *)
let send router ~cached op =
  let t0 = Clock.now () in
  let answer = Service.Client.request_to ~config:Daemons.client [ Service.Addr.Unix_path router ] op.line in
  let reply =
    match answer with
    | Error msg ->
      { ok = false; ms = 0.; server_ms = 0.; cached = false; status = ""; key = ""; detail = msg }
    | Ok line ->
      let f name = Option.value (P.field name line) ~default:"" in
      let status = f "status" and hit = f "cached" = "true" in
      {
        ok = status = expected_status op.pair && hit = cached;
        ms = 0.;
        server_ms = Option.value (float_of_string_opt (f "ms")) ~default:0.;
        cached = hit;
        status;
        key = f "key";
        detail = line;
      }
  in
  { reply with ms = 1000. *. (Clock.now () -. t0) }

let pass ?(traced = false) router ~cached ops =
  let t0 = Clock.now () in
  let replies =
    Array.mapi
      (fun k op ->
        if traced then Trace.with_ ~op:k "fleet.request" (fun () -> send router ~cached op)
        else send router ~cached op)
      ops
  in
  (replies, Clock.now () -. t0)

let failures what ops replies =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun k (r : reply) ->
            if r.ok then []
            else [ Printf.sprintf "%s %d (%s): %s" what k ops.(k).pair.Gen.name r.detail ])
          replies))

(* Zipf-skewed request stream over the served keys. *)
let zipf_requests rng served n =
  let weights = Array.mapi (fun i _ -> 1. /. (float_of_int (i + 1) ** zipf_s)) served in
  let total = Array.fold_left ( +. ) 0. weights in
  Array.init n (fun _ ->
      let u = Rng.float rng *. total in
      let rec pick i acc =
        let acc = acc +. weights.(i) in
        if u < acc || i = Array.length weights - 1 then served.(i) else pick (i + 1) acc
      in
      pick 0 0.)

type state = {
  fleet : Daemons.t;
  pairs : op array;
  served_keys : string array;  (** serve: hex keys of [pairs] *)
}

let setup kind ~tool ~dir ~seed ~seconds ~stats =
  Unix.mkdir dir 0o755;
  let inputs = write_inputs kind ~dir ~seed ~seconds in
  Array.iteri
    (fun i manifest ->
      let store = Filename.concat dir (Printf.sprintf "store%d" i) in
      let ex, _ = Proc.run tool [ "batch"; manifest; "--store"; store ] in
      if ex.Proc.code <> 0 then failwith "cec_tool batch failed on the background population")
    inputs.shard_manifests;
  let fleet = Daemons.start ~tool ~dir ~stats in
  let served_keys =
    match kind with
    | `Ingest -> [||]
    | `Serve ->
      (* One cold pass, so every timed request is a store hit. *)
      let cold, _ = pass fleet.Daemons.router.Daemons.sock ~cached:false inputs.pairs in
      (match failures "cold pass" inputs.pairs cold with [] -> () | e :: _ -> failwith e);
      Array.map (fun r -> r.key) cold
  in
  { fleet; pairs = inputs.pairs; served_keys }

let object_path store hex = Filename.concat (Filename.concat store "objects") hex

(* The shard whose store holds [hex] after the pass. *)
let owner stores hex =
  let rec go i =
    if i >= Array.length stores then None
    else if Sys.file_exists (object_path stores.(i) hex) then Some i
    else go (i + 1)
  in
  go 0

(* The engine [cec_tool serve] builds from its own flag defaults. *)
let serve_engine =
  {
    Service.Engine.default_config with
    Service.Engine.jobs = 1;
    engine = Cec.Sweeping { Sweep.default_config with Sweep.mode = Sweep.Perpair; portfolio = Sweep.Sat_only };
  }

let status_of = function
  | Cec.Equivalent _ -> "equivalent"
  | Cec.Inequivalent _ -> "inequivalent"
  | Cec.Undecided -> "undecided"

(* The body of a store object: everything after its two header lines. *)
let object_body path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let after_line s = String.sub s (String.index s '\n' + 1) (String.length s - String.index s '\n' - 1) in
  after_line (after_line data)

(* Replay each traced request in-process, on copies of the shard stores
   taken before the traced pass, through the functions the router and
   shard call.  Returns the mismatches with the fleet's replies. *)
let replay ~stores ~copies ops (replies : reply array) =
  let handles = Array.map (fun dir -> Service.Store.create ~dir ()) copies in
  let mismatches = ref [] in
  let mismatch k what = mismatches := Printf.sprintf "replay %d (%s): %s" k ops.(k).pair.Gen.name what :: !mismatches in
  Array.iteri
    (fun k op ->
      let r = replies.(k) in
      let sp name f = Trace.with_ ~op:k name f in
      sp "replay" @@ fun () ->
      let load path = match Service.Server.load_netlist path with Ok g -> g | Error e -> failwith e in
      let a, b = sp "service.load" (fun () -> (load op.golden, load op.revised)) in
      let a, b, key =
        sp "service.key" (fun () ->
            let a = Service.Key.normalize a and b = Service.Key.normalize b in
            (a, b, Service.Key.of_pair a b))
      in
      let hex = Service.Key.to_hex key in
      match owner stores hex with
      | None -> mismatch k "key not in any shard store"
      | Some _ when hex <> r.key -> mismatch k "key differs from the reply's"
      | Some i -> (
        let store = handles.(i) in
        match sp "store.find" (fun () -> Service.Store.find store key ~golden:a ~revised:b) with
        | Some verdict ->
          if not r.cached then mismatch k "hit in replay, miss in the fleet";
          if status_of verdict <> r.status then mismatch k "verdict differs";
          (match verdict with
          | Cec.Equivalent _ -> (
            let body = object_body (Service.Store.entry_path store key) in
            let formula = Cnf.Tseitin.miter_formula (Aig.Miter.build a b) in
            match sp "proof.hint_check" (fun () -> Proof.Hint_check.check ~formula body) with
            | Ok _ -> ()
            | Error _ -> mismatch k "stored certificate rejected")
          | Cec.Inequivalent _ | Cec.Undecided -> ())
        | None ->
          if r.cached then mismatch k "miss in replay, hit in the fleet";
          let result = sp "service.engine" (fun () -> Service.Engine.solve serve_engine a b) in
          let verdict = result.Service.Engine.verdict in
          if status_of verdict <> r.status then mismatch k "verdict differs";
          (match verdict with
          | Cec.Equivalent cert ->
            ignore
              (sp "proof.encode" (fun () ->
                   Proof.Binfmt.encode_hinted ~boundaries:cert.Cec.boundaries cert.Cec.proof
                     ~root:cert.Cec.root))
          | Cec.Inequivalent _ | Cec.Undecided -> ());
          sp "store.write" (fun () -> Service.Store.store store key verdict)))
    ops;
  List.rev !mismatches

let counters_of files =
  List.fold_left
    (fun acc file ->
      match Fleet.Snapshot.counters (In_channel.with_open_bin file In_channel.input_all) with
      | Error e -> failwith (file ^ ": " ^ e)
      | Ok cs -> Common.add_counters acc cs)
    [] files

let sum f replies = Array.fold_left (fun acc r -> acc +. f r) 0. replies

let run (kind : kind) ~tool ~dir ~seed ~seconds ~trace : Common.result =
  let state, setup_s =
    Common.repeated_setup ~runs:3 ~dir ~teardown:Daemons.stop_all (fun sub ->
        setup kind ~tool ~dir:sub ~seed ~seconds ~stats:trace)
  in
  let fleet = state.fleet in
  let router = fleet.Daemons.router.Daemons.sock in
  let cached = kind = `Serve in
  (* serve: every round sends the same zipf-skewed requests. *)
  let rounds =
    match kind with
    | `Serve ->
      let per_round = seconds *. nominal_requests_per_s /. float_of_int Common.rounds in
      let requests =
        zipf_requests (Rng.create (seed + 0x5eed)) state.pairs
          (max 250 (int_of_float (Float.round per_round)))
      in
      Array.make Common.rounds requests
    | `Ingest -> Common.split Common.rounds state.pairs
  in
  let flat a = Array.concat (Array.to_list a) in
  let passes ?traced rounds = Array.map (pass ?traced router ~cached) rounds in
  let bytes_before = Daemons.store_stats fleet "store_bytes" in
  (* ingest: every pair again, outside the timing; it must come back
     cached with the same verdict, i.e. re-validated by its shard. *)
  let verify ops replies =
    match kind with
    | `Serve -> replies
    | `Ingest ->
      let again, _ = pass router ~cached:true ops in
      Array.mapi
        (fun k r ->
          if again.(k).ok && again.(k).status = r.status then r
          else { r with ok = false; detail = "re-request: " ^ again.(k).detail })
        replies
  in
  if not trace then begin
    let timed = passes rounds in
    let ops = flat rounds in
    let replies = verify ops (flat (Array.map fst timed)) in
    let peak_rss = Daemons.peak_rss_mb fleet in
    let cert_bytes =
      match kind with
      | `Serve ->
        Array.fold_left
          (fun acc hex ->
            match owner fleet.Daemons.stores hex with
            | Some i -> acc + Proc.file_size (object_path fleet.Daemons.stores.(i) hex)
            | None -> acc)
          0 state.served_keys
      | `Ingest -> Daemons.store_stats fleet "store_bytes" - bytes_before
    in
    Daemons.stop_all ();
    let n = Array.length ops in
    let latencies = Array.to_list (Array.map (fun r -> r.ms) replies) in
    let failed = Common.count_failed (Array.to_list (Array.map (fun r -> r.ok) replies)) in
    {
      Common.correct = failed = 0;
      attempted = n;
      failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          Common.ops_per_s (Array.to_list (Array.map (fun (r, t) -> (Array.length r, t)) timed));
        ]
        @ Common.latency_metrics latencies
        @ [
            ("peak_rss_mb", peak_rss, "MB");
            ("cert_kb", float_of_int cert_bytes /. 1024., "KB");
            ("ok_frac", float_of_int (n - failed) /. float_of_int n, "1");
          ];
      (* Only serve has ten requests above its p99. *)
      summary =
        (match kind with
        | `Serve -> [ ("op_p99_ms", Report.percentile 0.99 latencies, "ms") ]
        | `Ingest -> []);
      notes = failures "request" ops replies;
    }
  end
  else begin
    (* ingest: the traced rounds must be new pairs too. *)
    let k = Common.traced_rounds in
    let untraced_ops = flat (Array.sub rounds 0 k) in
    let traced_ops =
      match kind with `Serve -> untraced_ops | `Ingest -> flat (Array.sub rounds k k)
    in
    let untraced, t_untraced = pass router ~cached untraced_ops in
    let copies =
      Array.mapi
        (fun i store ->
          let copy = Filename.concat dir (Printf.sprintf "replay-store%d" i) in
          Proc.copy_tree store copy;
          copy)
        fleet.Daemons.stores
    in
    let traced, t_traced = pass ~traced:true router ~cached traced_ops in
    let untraced = verify untraced_ops untraced and traced = verify traced_ops traced in
    let store = Daemons.store_stats fleet in
    Daemons.stop_all ();
    let mismatches = replay ~stores:fleet.Daemons.stores ~copies traced_ops traced in
    let counters = counters_of fleet.Daemons.stats_files in
    let counter name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
    let oks = Array.to_list (Array.map (fun r -> r.ok) (Array.append untraced traced)) in
    let failed = Common.count_failed oks in
    {
      Common.correct = failed = 0 && mismatches = [];
      attempted = List.length oks;
      failed;
      metrics =
        Common.per_layer
          (Common.span_metrics
             [ "service.load"; "service.key"; "store.find"; "proof.hint_check"; "service.engine";
               "store.write"; "proof.encode" ]
          @ [
              ("service.hit_s", sum (fun r -> if r.cached then r.server_ms /. 1000. else 0.) traced);
              ("service.solve_s", sum (fun r -> if r.cached then 0. else r.server_ms /. 1000.) traced);
              ("fleet.outside_s", sum (fun r -> (r.ms -. r.server_ms) /. 1000.) traced);
            ]
          @ List.map
              (fun n -> (n, counter n))
              [ "check.steps"; "fleet.forwarded"; "fleet.failovers"; "fleet.forward_failures";
                "parallel.partitions"; "parallel.rounds" ]
          @ List.map
              (fun n -> ("store." ^ n, float_of_int (store ("store_" ^ n))))
              [ "hits"; "misses"; "entries"; "bytes"; "corrupt"; "write_failures" ]
          @ [
              Common.overhead
                ~untraced:(Array.length untraced_ops, t_untraced)
                ~traced:(Array.length traced_ops, t_traced);
            ]);
      summary = [];
      notes = failures "request" untraced_ops untraced @ failures "request" traced_ops traced @ mismatches;
    }
  end
