type t = { mutable data : int array; mutable size : int }

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) 0; size = 0 }

let make n x = { data = Array.make (max n 1) x; size = n }

let size v = v.size
let is_empty v = v.size = 0

let get v i =
  assert (i >= 0 && i < v.size);
  Array.unsafe_get v.data i

let set v i x =
  assert (i >= 0 && i < v.size);
  Array.unsafe_set v.data i x

let ensure v n =
  if n > Array.length v.data then begin
    let capacity = ref (Array.length v.data) in
    while !capacity < n do
      capacity := !capacity * 2
    done;
    let data = Array.make !capacity 0 in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end

let push v x =
  ensure v (v.size + 1);
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Veci.pop: empty";
  v.size <- v.size - 1;
  Array.unsafe_get v.data v.size

let last v =
  if v.size = 0 then invalid_arg "Veci.last: empty";
  Array.unsafe_get v.data (v.size - 1)

let shrink v n =
  assert (n >= 0 && n <= v.size);
  v.size <- n

let clear v = v.size <- 0

let grow v n x =
  ensure v n;
  while v.size < n do
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1
  done

let grown_capacity len n = if n > 2 * len then n else 2 * len

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let to_array v = Array.sub v.data 0 v.size
let to_list v = Array.to_list (to_array v)

let of_array a =
  let n = Array.length a in
  let v = create ~capacity:(max n 1) () in
  Array.blit a 0 v.data 0 n;
  v.size <- n;
  v

let of_list l = of_array (Array.of_list l)

let swap v i j =
  let x = get v i in
  set v i (get v j);
  set v j x

let sort v =
  let a = to_array v in
  Array.sort compare a;
  Array.blit a 0 v.data 0 v.size

let copy v = { data = Array.copy v.data; size = v.size }

let pp fmt v =
  Format.fprintf fmt "[|";
  iteri (fun i x -> if i > 0 then Format.fprintf fmt "; %d" x else Format.fprintf fmt "%d" x) v;
  Format.fprintf fmt "|]"
