(* Child processes of the benchmark: the cec_tool calls of [prove] and
   the fleet daemons.  Every child is reaped with wait4(2) so its peak
   resident set comes from the kernel. *)

external wait4 : int -> int * int = "perfbench_wait4"

type exit = {
  code : int;
  maxrss_kb : int;
}

let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* Start [tool args] with stdin and stdout on /dev/null unless [stdout]
   is given; stderr is inherited so failures stay visible. *)
let spawn ?stdout tool args =
  let null = Lazy.force dev_null in
  let out = Option.value stdout ~default:null in
  Unix.create_process tool (Array.of_list (tool :: args)) null out Unix.stderr

let reap pid =
  let code, maxrss_kb = wait4 pid in
  { code; maxrss_kb }

(* Run [tool args] to completion, returning its exit record and
   standard output. *)
let run tool args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    match spawn ~stdout:wr tool args with
    | pid ->
      Unix.close wr;
      pid
    | exception e ->
      Unix.close wr;
      Unix.close rd;
      raise e
  in
  let ic = Unix.in_channel_of_descr rd in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  (reap pid, out)

(* Peak resident set of a live process, from /proc (MiB). *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.map (fun kb -> float_of_int kb /. 1024.) (int_of_string_opt kb)
             | [] -> None)
           | _ -> None)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec copy_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
    Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  | Unix.S_REG ->
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> output_string oc data)
  | _ -> ()

let file_size path = (Unix.stat path).Unix.st_size
