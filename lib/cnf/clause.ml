module Lit = Aig.Lit

type t = int array

let empty = [||]
let is_empty c = Array.length c = 0

let tautology () = invalid_arg "Clause: tautology (both polarities of a variable)"

(* Sort, deduplicate, and reject tautologies, in place: [lits] must be
   a fresh array the caller gives up.  Sorted literal order puts the two
   polarities of a variable adjacently, so both checks are a single
   pass, and an array without duplicates is returned as it is. *)
let normalize lits =
  Array.sort Int.compare lits;
  let n = Array.length lits in
  let k = ref (min n 1) in
  for i = 1 to n - 1 do
    let l = lits.(i) in
    let prev = lits.(!k - 1) in
    if l <> prev then begin
      if Lit.var l = Lit.var prev then tautology ();
      lits.(!k) <- l;
      incr k
    end
  done;
  if !k = n then lits else Array.sub lits 0 !k

let of_array lits = normalize (Array.copy lits)
let of_list lits = normalize (Array.of_list lits)
let map_lits f c = normalize (Array.map f c)
let singleton l = [| l |]

let size = Array.length
let lits c = Array.copy c
let to_list = Array.to_list
let iter = Array.iter
let fold f acc c = Array.fold_left f acc c

let mem l c =
  (* Binary search in the sorted representation. *)
  let rec loop lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if c.(mid) = l then true else if c.(mid) < l then loop (mid + 1) hi else loop lo mid
  in
  loop 0 (Array.length c)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let hash c = Array.fold_left (fun acc l -> (acc * 31) + l + 1) 17 c

let subsumes c d = Array.for_all (fun l -> mem l d) c

(* The resolvent of two clauses in one merge of their sorted literal
   arrays: the union minus the variable they clash on.  Sorted order
   puts a variable's two literals side by side, so a clash shows up as
   two heads [l] and [l lxor 1].  [pivot] holds the variable to drop,
   or [-1] to drop the first clash met and record it there; a clash on
   any other variable would leave a tautology. *)
let merge c d pivot =
  let nc = Array.length c and nd = Array.length d in
  let out = Array.make (nc + nd) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nc && !j < nd do
    let a = Array.unsafe_get c !i and b = Array.unsafe_get d !j in
    if a = b then begin
      Array.unsafe_set out !k a;
      incr k;
      incr i;
      incr j
    end
    else if a lxor 1 = b then begin
      let v = Lit.var a in
      if !pivot < 0 then pivot := v else if v <> !pivot then tautology ();
      incr i;
      incr j
    end
    else if a < b then begin
      Array.unsafe_set out !k a;
      incr k;
      incr i
    end
    else begin
      Array.unsafe_set out !k b;
      incr k;
      incr j
    end
  done;
  Array.blit c !i out !k (nc - !i);
  k := !k + nc - !i;
  Array.blit d !j out !k (nd - !j);
  k := !k + nd - !j;
  if !k = nc + nd then out else Array.sub out 0 !k

let resolve c d ~pivot =
  let pos = Lit.of_var pivot in
  if not (mem pos c) then invalid_arg "Clause.resolve: positive pivot not in first clause";
  if not (mem (Lit.neg pos) d) then
    invalid_arg "Clause.resolve: negative pivot not in second clause";
  merge c d (ref pivot)

let resolve_on c d ~pivot =
  let pos = Lit.of_var pivot in
  if mem pos c && mem (Lit.neg pos) d then merge c d (ref pivot) else resolve d c ~pivot

let resolve_clash c d =
  let pivot = ref (-1) in
  let r = merge c d pivot in
  if !pivot < 0 then None else Some (r, !pivot)

let resolve_any ~c ~d =
  match resolve_clash c d with
  | Some (r, _) -> r
  | None -> invalid_arg "Clause.resolve_any: no clashing variable"
  | exception Invalid_argument _ ->
    invalid_arg "Clause.resolve_any: more than one clashing variable"

(* Literals are sorted and a variable's literals are [2v] and [2v+1],
   so the last literal holds the largest variable. *)
let max_var c =
  let n = Array.length c in
  if n = 0 then -1 else Lit.var c.(n - 1)

let satisfied_by c assignment =
  Array.exists (fun l -> assignment.(Lit.var l) <> Lit.is_neg l) c

let pp fmt c =
  Format.fprintf fmt "(";
  Array.iteri (fun i l -> Format.fprintf fmt (if i = 0 then "%a" else " %a") Lit.pp l) c;
  Format.fprintf fmt ")"

let to_dimacs_string c =
  String.concat " " (List.map (fun l -> string_of_int (Lit.to_dimacs l)) (to_list c) @ [ "0" ])
