(* Every timing in the benchmark reads the monotonic clock. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [Obs.Clock] defaults to processor time summed over domains; spans
   recorded in this process must use the same clock as the bench. *)
let install () = Obs.Clock.set now

(* A fixed loop of dependent random updates over a 16 MiB array: its
   time tracks the host's processor and memory, not the program. *)
let spin_ms () =
  let size = 1 lsl 21 in
  let a = Array.make size 0 in
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345 + a.(!x)) land (size - 1);
    a.(!x) <- a.(!x) + 1
  done;
  ignore (Sys.opaque_identity a);
  1000. *. (now () -. t0)
