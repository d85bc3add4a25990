(* Seeded workload inputs.  Every pair comes from the repository's
   circuit generators.  A workload fixes its strata (family, size,
   architecture, and which pairs are broken); the seed drives the
   rewrite streams, the random logic and how a pair is broken.  So two
   seeds give different inputs of the same composition, and figures
   measured on one seed carry over to another. *)

module Rng = Support.Rng
module C = Circuits

type pair = {
  name : string;
  golden : Aig.t;
  revised : Aig.t;
  equivalent : bool;
}

type family =
  | Adder
  | Prefix
  | Multiplier
  | Comparator
  | Alu
  | Shifter
  | Random_logic

let family_name = function
  | Adder -> "add"
  | Prefix -> "prefix"
  | Multiplier -> "mul"
  | Comparator -> "cmp"
  | Alu -> "alu"
  | Shifter -> "shift"
  | Random_logic -> "rand"

type stratum = {
  family : family;
  size : int;
  variant : int;  (** architecture, modulo the family's alternatives *)
  broken : bool;  (** made inequivalent *)
}

let restructure rng g = C.Rewrite.restructure (Rng.split rng) g

(* A golden circuit against a restructured copy of itself or of another
   architecture of the same function; the seeded rewrite makes every
   draw a different pair.  [n] is the family's size parameter. *)
let equivalent_pair rng { family; size = n; variant; _ } =
  let pick options = options.(variant mod Array.length options) in
  let ( => ) golden revised = (golden, revised) in
  let arch, (golden, revised) =
    match family with
    | Adder ->
      let rc () = C.Adder.ripple_carry n in
      pick
        [|
          ("cla", rc => fun () -> C.Adder.carry_lookahead n);
          ("csel", rc => fun () -> C.Adder.carry_select n);
          ("rc", rc => rc);
        |]
    | Prefix ->
      let ks () = C.Prefix_adder.kogge_stone n in
      pick
        [|
          ("bk", ks => fun () -> C.Prefix_adder.brent_kung n);
          ("skl", ks => fun () -> C.Prefix_adder.sklansky n);
          ("rc", ks => fun () -> C.Adder.ripple_carry n);
        |]
    | Multiplier ->
      let arr () = C.Multiplier.array n in
      pick
        [|
          ("sa", arr => fun () -> C.Multiplier.shift_add n);
          ("booth", arr => fun () -> C.Booth.radix4 n);
          ("arr", arr => arr);
        |]
    | Comparator ->
      pick
        [|
          (let lt () = C.Datapath.less_than n in ("lt", lt => lt));
          ( "eq-lin",
            (fun () -> C.Datapath.equality ~tree:true n)
            => fun () -> C.Datapath.equality ~tree:false n );
        |]
    | Alu ->
      let alu () = C.Datapath.alu n in
      ("alu", alu => alu)
    | Shifter ->
      pick
        [|
          (let b () = C.Misc_logic.barrel_shifter n in ("bshift", b => b));
          (let p () = C.Misc_logic.priority_encoder (8 * n) in ("prio", p => p));
        |]
    | Random_logic ->
      let rand_seed = Rng.int rng 1_000_000 in
      let r () =
        C.Random_aig.generate (Rng.create rand_seed) ~num_inputs:16 ~num_ands:(20 * n)
          ~num_outputs:8
      in
      ("rand", r => r)
  in
  let golden = golden () in
  (Printf.sprintf "%s%d-%s" (family_name family) n arch, golden, restructure rng (revised ()))

(* Outputs [i] and [j] of [g] differ on some of [vectors]. *)
let outputs_differ g vectors i j =
  List.exists
    (fun v ->
      let out = Aig.eval g v in
      out.(i) <> out.(j))
    vectors

(* Break a pair by swapping two outputs of the revised circuit, or by
   inverting one when no two outputs are told apart by simulation
   (swapping equal functions would leave the pair equivalent). *)
let break rng revised =
  let n = Aig.num_outputs revised in
  let vectors =
    List.init 64 (fun _ -> Array.init (Aig.num_inputs revised) (fun _ -> Rng.bool rng))
  in
  let i = Rng.int rng n in
  let j = (i + 1 + Rng.int rng (max 1 (n - 1))) mod n in
  if n >= 2 && Rng.bool rng && outputs_differ revised vectors i j then begin
    let oi = Aig.output revised i and oj = Aig.output revised j in
    Aig.set_output revised i oj;
    Aig.set_output revised j oi;
    "swap"
  end
  else begin
    Aig.set_output revised i (Aig.Lit.neg (Aig.output revised i));
    "inv"
  end

(* [blocks n block] repeats a block of eight [(family, size)] strata
   [n] times.  Block [b] takes architecture [b] of each family and
   breaks stratum [(3b + 5) mod 8], so one pair in eight is
   inequivalent and every family gets its turn. *)
let blocks n block =
  List.concat
    (List.init n (fun b ->
         List.mapi
           (fun i (family, size) -> { family; size; variant = b; broken = i = ((3 * b) + 5) mod 8 })
           block))

(* One pair per stratum, in order.  A pair whose service key an earlier
   pair already has is redrawn, so no pair repeats. *)
let generated rng strata =
  let seen = Hashtbl.create 64 in
  let rec fresh stratum =
    let name, golden, revised = equivalent_pair rng stratum in
    let key = Service.Key.to_hex (Service.Key.of_pair golden revised) in
    if Hashtbl.mem seen key then fresh stratum
    else begin
      Hashtbl.add seen key ();
      (name, golden, revised)
    end
  in
  List.map
    (fun stratum ->
      let name, golden, revised = fresh stratum in
      if stratum.broken then
        let how = break rng revised in
        { name = name ^ "-" ^ how; golden; revised; equivalent = false }
      else { name; golden; revised; equivalent = true })
    strata

(* The 25 rows of [Circuits.Suite.default], all equivalent. *)
let suite () =
  List.map
    (fun (c : C.Suite.case) ->
      { name = c.C.Suite.name; golden = c.C.Suite.golden (); revised = c.C.Suite.revised ();
        equivalent = true })
    C.Suite.default

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Write [pairs] under [dir] as ASCII AIGER and return each pair's
   (golden, revised) paths.  A netlist whose text an earlier one of the
   call already has reuses that file, so a stratum's fixed golden
   circuit is written once. *)
let write dir tag pairs =
  let written = Hashtbl.create 64 in
  let file name g =
    let text = Aig.Aiger.to_string g in
    match Hashtbl.find_opt written text with
    | Some path -> path
    | None ->
      let path = Filename.concat dir name in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Hashtbl.add written text path;
      path
  in
  Array.mapi
    (fun k p ->
      let name side = Printf.sprintf "%s%03d-%s.aag" tag k side in
      (file (name "g") p.golden, file (name "r") p.revised))
    pairs
