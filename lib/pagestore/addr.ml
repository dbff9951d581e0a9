type t = int

let offset_bits = 28
let offset_mask = (1 lsl offset_bits) - 1

let null = 0
let is_null a = a = 0

let make ~page ~offset =
  if page < 0 then invalid_arg "Addr.make: negative page";
  if offset < 0 || offset > offset_mask then invalid_arg "Addr.make: offset out of range";
  ((page lsl offset_bits) lor offset) + 1

(* [page]/[offset] sit on the facade data path's per-access hot path.
   [@inline always] inlines the two-instruction bodies only where this
   implementation is visible: under dune's default (dev) profile every
   module is compiled with [-opaque], so callers in other modules make a
   real call. Hot decoders elsewhere restate them over the exposed
   [offset_bits]/[offset_mask]. *)
let[@inline always] page a =
  assert (a <> 0);
  (a - 1) lsr offset_bits

let[@inline always] offset a =
  assert (a <> 0);
  (a - 1) land offset_mask

let add a k =
  if a = 0 then invalid_arg "Addr.add: null";
  make ~page:(page a) ~offset:(offset a + k)

let equal = Int.equal
let compare = Int.compare
let to_int a = a
let of_int a = a

let pp ppf a =
  if is_null a then Format.pp_print_string ppf "null"
  else Format.fprintf ppf "pg%d+%d" (page a) (offset a)
