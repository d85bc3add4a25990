module Veci = Support.Veci

type t = {
  score : int -> float;
  heap : Veci.t; (* heap.(i) = element at heap position i *)
  pos : Veci.t; (* pos.(x) = heap position of element x, or -1 *)
}

let create score = { score; heap = Veci.create (); pos = Veci.create () }

let is_empty t = Veci.is_empty t.heap
let size t = Veci.size t.heap

let mem t x = x < Veci.size t.pos && Veci.get t.pos x >= 0

let swap t i j =
  let xi = Veci.get t.heap i and xj = Veci.get t.heap j in
  Veci.set t.heap i xj;
  Veci.set t.heap j xi;
  Veci.set t.pos xj i;
  Veci.set t.pos xi j

let better t i j = t.score (Veci.get t.heap i) > t.score (Veci.get t.heap j)

let rec up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if better t i parent then begin
      swap t i parent;
      up t parent
    end
  end

let rec down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let n = Veci.size t.heap in
  let best = ref i in
  if l < n && better t l !best then best := l;
  if r < n && better t r !best then best := r;
  if !best <> i then begin
    swap t i !best;
    down t !best
  end

let insert t x =
  Veci.grow t.pos (x + 1) (-1);
  if Veci.get t.pos x < 0 then begin
    Veci.push t.heap x;
    Veci.set t.pos x (Veci.size t.heap - 1);
    up t (Veci.size t.heap - 1)
  end

let clear t =
  Veci.iter (fun x -> Veci.set t.pos x (-1)) t.heap;
  Veci.clear t.heap

let pop t =
  if is_empty t then invalid_arg "Heap.pop: empty";
  let top = Veci.get t.heap 0 in
  let n = Veci.size t.heap in
  swap t 0 (n - 1);
  ignore (Veci.pop t.heap);
  Veci.set t.pos top (-1);
  if not (is_empty t) then down t 0;
  top

let update t x =
  if mem t x then begin
    let i = Veci.get t.pos x in
    up t i;
    down t (Veci.get t.pos x)
  end
