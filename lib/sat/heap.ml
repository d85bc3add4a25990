module Veci = Support.Veci

type t = {
  heap : Veci.t; (* heap.(i) = element at heap position i *)
  pos : Veci.t; (* pos.(x) = heap position of element x, or -1 *)
}

let create () = { heap = Veci.create (); pos = Veci.create () }

let is_empty t = Veci.is_empty t.heap
let size t = Veci.size t.heap

let mem t x = x < Veci.size t.pos && Veci.get t.pos x >= 0

let swap t i j =
  let xi = Veci.get t.heap i and xj = Veci.get t.heap j in
  Veci.set t.heap i xj;
  Veci.set t.heap j xi;
  Veci.set t.pos xj i;
  Veci.set t.pos xi j

let better t scores i j = scores.(Veci.get t.heap i) > scores.(Veci.get t.heap j)

let rec up t scores i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if better t scores i parent then begin
      swap t i parent;
      up t scores parent
    end
  end

let rec down t scores i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let n = Veci.size t.heap in
  let best = ref i in
  if l < n && better t scores l !best then best := l;
  if r < n && better t scores r !best then best := r;
  if !best <> i then begin
    swap t i !best;
    down t scores !best
  end

let insert t scores x =
  Veci.grow t.pos (x + 1) (-1);
  if Veci.get t.pos x < 0 then begin
    Veci.push t.heap x;
    Veci.set t.pos x (Veci.size t.heap - 1);
    up t scores (Veci.size t.heap - 1)
  end

let clear t =
  for i = 0 to Veci.size t.heap - 1 do
    Veci.set t.pos (Veci.get t.heap i) (-1)
  done;
  Veci.clear t.heap

let pop t scores =
  if is_empty t then invalid_arg "Heap.pop: empty";
  let top = Veci.get t.heap 0 in
  let n = Veci.size t.heap in
  swap t 0 (n - 1);
  ignore (Veci.pop t.heap);
  Veci.set t.pos top (-1);
  if not (is_empty t) then down t scores 0;
  top

let update t scores x =
  if mem t x then begin
    let i = Veci.get t.pos x in
    up t scores i;
    down t scores (Veci.get t.pos x)
  end
