type t = string

let format_version = 1

let normalize = Aig.cleanup

let of_normalized a b =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "cecproof-key %d\n" format_version;
  Aig.Aiger.to_buffer buf a;
  Buffer.add_string buf "\n--\n";
  Aig.Aiger.to_buffer buf b;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let of_pair a b = of_normalized (normalize a) (normalize b)

let to_hex k = k

let is_hex_char c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let of_hex s = if String.length s = 32 && String.for_all is_hex_char s then Some s else None

let equal = String.equal
let pp fmt k = Format.pp_print_string fmt k
