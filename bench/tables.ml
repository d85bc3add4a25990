(* Plain-text table rendering for the experiment harness. *)

let render ~title ~columns ~rows =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length col) rows)
      columns
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
  let render_row cells = String.concat " | " (List.map2 pad cells widths) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  Buffer.add_string buf (render_row columns ^ "\n");
  Buffer.add_string buf (line ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
  Buffer.contents buf

let print ~title ~columns ~rows =
  print_string (render ~title ~columns ~rows ^ "\n");
  (* The harness may run for minutes piped into tee: flush per table so
     partial output survives interruption. *)
  flush stdout

let fmt_ms seconds = Printf.sprintf "%.1f" (seconds *. 1000.0)
let fmt_ratio num den = if den = 0.0 then "-" else Printf.sprintf "%.2fx" (num /. den)
