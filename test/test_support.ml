(* Tests for the support library: int vectors and the PRNG. *)

module Veci = Support.Veci
module Rng = Support.Rng

let test_veci_push_pop () =
  let v = Veci.create () in
  for i = 0 to 99 do
    Veci.push v i
  done;
  Alcotest.(check int) "size" 100 (Veci.size v);
  Alcotest.(check int) "last" 99 (Veci.last v);
  for i = 99 downto 0 do
    Alcotest.(check int) "pop order" i (Veci.pop v)
  done;
  Alcotest.(check bool) "empty" true (Veci.is_empty v)

let test_veci_grow_shrink () =
  let v = Veci.make 3 7 in
  Alcotest.(check (list int)) "make" [ 7; 7; 7 ] (Veci.to_list v);
  Veci.grow v 6 1;
  Alcotest.(check (list int)) "grow" [ 7; 7; 7; 1; 1; 1 ] (Veci.to_list v);
  Veci.shrink v 2;
  Alcotest.(check (list int)) "shrink" [ 7; 7 ] (Veci.to_list v);
  Veci.clear v;
  Alcotest.(check int) "clear" 0 (Veci.size v)

let test_veci_sort_swap () =
  let v = Veci.of_list [ 3; 1; 2 ] in
  Veci.swap v 0 2;
  Alcotest.(check (list int)) "swap" [ 2; 1; 3 ] (Veci.to_list v);
  Veci.sort v;
  Alcotest.(check (list int)) "sort" [ 1; 2; 3 ] (Veci.to_list v)

let test_veci_iter_fold () =
  let v = Veci.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold sum" 10 (Veci.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Veci.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Veci.exists (fun x -> x = 9) v);
  let copy = Veci.copy v in
  Veci.set copy 0 100;
  Alcotest.(check int) "copy is independent" 1 (Veci.get v 0)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "Rng.int out of bounds: %d" x;
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "Rng.float out of bounds: %f" f
  done

let test_rng_distribution () =
  (* Coarse uniformity check: each of 8 buckets within 3x of the mean. *)
  let rng = Rng.create 77 in
  let buckets = Array.make 8 0 in
  let n = 16_000 in
  for _ = 1 to n do
    let i = Rng.int rng 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i count ->
      if count < n / 8 / 3 || count > n / 8 * 3 then
        Alcotest.failf "bucket %d has suspicious count %d" i count)
    buckets

let test_rng_split () =
  let rng = Rng.create 9 in
  let child = Rng.split rng in
  (* Streams should diverge quickly. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 rng = Rng.int64 child then incr same
  done;
  Alcotest.(check bool) "split independent" true (!same < 4)

let suites =
  [
    ( "support",
      [
        Alcotest.test_case "veci push/pop" `Quick test_veci_push_pop;
        Alcotest.test_case "veci grow/shrink" `Quick test_veci_grow_shrink;
        Alcotest.test_case "veci sort/swap" `Quick test_veci_sort_swap;
        Alcotest.test_case "veci iter/fold/copy" `Quick test_veci_iter_fold;
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng distribution" `Quick test_rng_distribution;
        Alcotest.test_case "rng split" `Quick test_rng_split;
      ] );
  ]
