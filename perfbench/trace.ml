(* Spans recorded by the bench around its calls into the program and
   the library: name, start, end, parent span and op id.  They stay in
   memory until the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;
  name : string;
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0

let with_ ~op name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let start = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      current := parent;
      spans := { id; parent; op; name; start; stop = Clock.now () } :: !spans)
    f

(* Allocated words (minor + major - promoted) of [f], in millions. *)
let alloc_mw f =
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let r = f () in
  (r, (words () -. w0) /. 1e6)

(* Total self time per span name: a span's duration minus the
   durations of its child spans. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace child s.parent (d +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own = s.stop -. s.start -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      Hashtbl.replace self s.name (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.))
    !spans;
  fun name -> Option.value (Hashtbl.find_opt self name) ~default:0.

(* Chrome trace_event JSON (complete events, microseconds). *)
let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
            (if i = 0 then "" else ",")
            s.name (s.start *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            s.id s.parent s.op)
        (List.rev !spans);
      output_string oc "\n]}\n")
