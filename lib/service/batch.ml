module Cec = Cec_core.Cec

type line_result = {
  golden_path : string;
  revised_path : string;
  status : string;
  cached : bool;
  ms : float;
  detail : string;
}

type summary = {
  total : int;
  hits : int;
  proved : int;
  counterexamples : int;
  undecided : int;
  errors : int;
  ms : float;
}

let parse_manifest path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    let base = Filename.dirname path in
    let resolve p = if Filename.is_relative p then Filename.concat base p else p in
    let rec collect acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then collect acc (lineno + 1) rest
        else
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ a; b ] -> collect ((resolve a, resolve b) :: acc) (lineno + 1) rest
          | _ ->
            Error
              (Printf.sprintf "%s:%d: expected \"GOLDEN REVISED\", got %S" path lineno line))
    in
    collect [] 1 (String.split_on_char '\n' text)

let run ?(clock = Unix.gettimeofday) ~store ~engine ?timeout_ms ?(on_result = fun _ -> ()) pairs =
  let t0 = clock () in
  let hits = ref 0 and proved = ref 0 and cex = ref 0 and undecided = ref 0 and errors = ref 0 in
  let finish_pair golden_path revised_path started status cached detail =
    (match status with
    | "equivalent" -> incr proved
    | "inequivalent" -> incr cex
    | "undecided" | "timeout" | "uncertified" -> incr undecided
    | _ -> incr errors);
    if cached then incr hits;
    on_result
      {
        golden_path;
        revised_path;
        status;
        cached;
        ms = 1000.0 *. (clock () -. started);
        detail;
      }
  in
  List.iter
    (fun (golden_path, revised_path) ->
      let started = clock () in
      match (Server.load_netlist golden_path, Server.load_netlist revised_path) with
      | Error msg, _ | _, Error msg -> finish_pair golden_path revised_path started "error" false msg
      | Ok a, Ok b ->
        if Aig.num_inputs a <> Aig.num_inputs b || Aig.num_outputs a <> Aig.num_outputs b
        then
          finish_pair golden_path revised_path started "error" false
            "interface mismatch between the two netlists"
        else begin
          let a = Key.normalize a and b = Key.normalize b in
          let key = Key.of_normalized a b in
          let deadline =
            Option.map (fun ms -> started +. (float_of_int ms /. 1000.0)) timeout_ms
          in
          let bits cexa =
            String.init (Array.length cexa) (fun i -> if cexa.(i) then '1' else '0')
          in
          match Store.lookup store key ~golden:a ~revised:b with
          | Some Store.Equivalent -> finish_pair golden_path revised_path started "equivalent" true ""
          | Some (Store.Inequivalent cexa) ->
            finish_pair golden_path revised_path started "inequivalent" true (bits cexa)
          | None -> (
            match Engine.solve ~clock ?deadline engine a b with
            | exception Invalid_argument msg ->
              finish_pair golden_path revised_path started "error" false msg
            | result ->
              if result.Engine.degraded = None then Store.store store key result.Engine.verdict;
              let status =
                match (result.Engine.verdict, result.Engine.degraded) with
                | Cec.Equivalent _, _ -> "equivalent"
                | Cec.Inequivalent _, _ -> "inequivalent"
                | Cec.Undecided, Some _ -> "uncertified"
                | Cec.Undecided, None ->
                  if result.Engine.timed_out then "timeout" else "undecided"
              in
              let detail =
                match (result.Engine.verdict, result.Engine.degraded) with
                | Cec.Inequivalent c, _ -> bits c
                | Cec.Undecided, Some reason -> reason
                | _ -> ""
              in
              finish_pair golden_path revised_path started status false detail)
        end)
    pairs;
  {
    total = List.length pairs;
    hits = !hits;
    proved = !proved;
    counterexamples = !cex;
    undecided = !undecided;
    errors = !errors;
    ms = 1000.0 *. (clock () -. t0);
  }
