(* Summary statistics and the result line. *)

(* Nearest-rank percentile of a non-empty sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

type metric = string * float * string

let json_number v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

(* The last line of standard output. *)
let print ~correct ~attempted ~failed (metrics : metric list) =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)
