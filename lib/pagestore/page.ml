type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create ~bytes =
  if bytes <= 0 then invalid_arg "Page.create: non-positive size";
  let p = Bigarray.Array1.create Bigarray.char Bigarray.c_layout bytes in
  Bigarray.Array1.fill p '\000';
  p

let capacity = Bigarray.Array1.dim

(* A zero-length page no [create] can produce: every accessor's bounds
   check fails on it, so it serves as the pool's trap-on-use sentinel
   for unallocated and discarded table slots. *)
let sentinel : t = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

let[@inline always] read_u8 (p : t) i = Char.code (Bigarray.Array1.get p i)
let[@inline always] write_u8 (p : t) i v = Bigarray.Array1.set p i (Char.chr (v land 0xff))

(* Multi-byte accessors bounds-check the access once up front, then issue
   a single unaligned machine load or store through the bigstring
   primitives; an out-of-range access falls back to the checked byte path
   so it raises exactly where (and what) a byte-wise walk would. The
   primitives are native-endian, so the word path is additionally gated
   on little-endian hardware; big-endian targets take the (equivalent,
   slower) byte-composition path. Little-endian byte order throughout.

   The wrappers are [@inline always], which inlines them at call sites
   that can see this module's implementation — calls within this module,
   and every call under [--profile release]. Dune's default (dev) profile
   compiles each module with [-opaque], so there a call from another
   module is an ordinary out-of-line call; the tier-2 templates, which
   cannot afford that, issue the same primitives themselves over the
   exposed [t] and fall back to these accessors. The byte fallbacks are
   hoisted out of line so the inlined body stays a compare-and-load. *)

external get_16u : t -> int -> int = "%caml_bigstring_get16u"
external get_32u : t -> int -> int32 = "%caml_bigstring_get32u"
external get_64u : t -> int -> int64 = "%caml_bigstring_get64u"
external set_16u : t -> int -> int -> unit = "%caml_bigstring_set16u"
external set_32u : t -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set_64u : t -> int -> int64 -> unit = "%caml_bigstring_set64u"

let le = not Sys.big_endian

let[@inline never] read_u16_slow p i = read_u8 p i lor (read_u8 p (i + 1) lsl 8)

let[@inline never] write_u16_slow p i v =
  write_u8 p i v;
  write_u8 p (i + 1) (v lsr 8)

let read_u32_slow p i = read_u16_slow p i lor (read_u16_slow p (i + 2) lsl 16)

let[@inline never] read_i32_slow p i =
  let v = read_u32_slow p i in
  (v lxor 0x80000000) - 0x80000000

let[@inline never] write_i32_slow p i v =
  write_u16_slow p i v;
  write_u16_slow p (i + 2) (v asr 16)

let[@inline never] read_i64_slow p i =
  let lo = read_u32_slow p i in
  let hi = read_u32_slow p (i + 4) in
  lo lor (hi lsl 32)

let[@inline never] write_i64_slow p i v =
  write_i32_slow p i v;
  write_i32_slow p (i + 4) (v asr 32)

(* The top bit of an IEEE double pattern would not survive a round-trip
   through OCaml's 63-bit int, so the byte fallback moves floats as two
   unsigned 32-bit halves; the word path keeps all 64 bits in the
   (locally unboxed) Int64. *)
let[@inline never] write_f64_slow p i v =
  let bits = Int64.bits_of_float v in
  let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  write_i32_slow p i lo;
  write_i32_slow p (i + 4) hi

let[@inline never] read_f64_slow p i =
  let lo = Int64.of_int (read_u32_slow p i) in
  let hi = Int64.of_int (read_u32_slow p (i + 4)) in
  Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32))

let[@inline always] read_u16 p i =
  if le && i >= 0 && i + 2 <= Bigarray.Array1.dim p then get_16u p i land 0xffff
  else read_u16_slow p i

let[@inline always] write_u16 p i v =
  if le && i >= 0 && i + 2 <= Bigarray.Array1.dim p then set_16u p i v
  else write_u16_slow p i v

let[@inline always] read_i32 p i =
  if le && i >= 0 && i + 4 <= Bigarray.Array1.dim p then
    (* [Int32.to_int] sign-extends from bit 31 for free. *)
    Int32.to_int (get_32u p i)
  else read_i32_slow p i

let[@inline always] write_i32 p i v =
  if le && i >= 0 && i + 4 <= Bigarray.Array1.dim p then set_32u p i (Int32.of_int v)
  else write_i32_slow p i v

let[@inline always] read_i64 p i =
  if le && i >= 0 && i + 8 <= Bigarray.Array1.dim p then
    (* Truncation to the 63-bit int drops the same top bit the byte
       composition drops. *)
    Int64.to_int (get_64u p i)
  else read_i64_slow p i

let[@inline always] write_i64 p i v =
  if le && i >= 0 && i + 8 <= Bigarray.Array1.dim p then
    (* [Int64.of_int] replicates the 63-bit sign into bit 63, exactly as
       the byte path's final [asr 56] store does. *)
    set_64u p i (Int64.of_int v)
  else write_i64_slow p i v

let[@inline always] write_f64 p i v =
  if le && i >= 0 && i + 8 <= Bigarray.Array1.dim p then
    set_64u p i (Int64.bits_of_float v)
  else write_f64_slow p i v

let[@inline always] read_f64 p i =
  if le && i >= 0 && i + 8 <= Bigarray.Array1.dim p then
    Int64.float_of_bits (get_64u p i)
  else read_f64_slow p i

let[@inline always] read_f32 p i =
  if le && i >= 0 && i + 4 <= Bigarray.Array1.dim p then
    Int32.float_of_bits (get_32u p i)
  else Int32.float_of_bits (Int32.of_int (read_i32_slow p i))

let[@inline always] write_f32 p i v =
  if le && i >= 0 && i + 4 <= Bigarray.Array1.dim p then
    set_32u p i (Int32.bits_of_float v)
  else write_i32_slow p i (Int32.to_int (Int32.bits_of_float v))

let blit ~src ~src_off ~dst ~dst_off ~len =
  let s = Bigarray.Array1.sub src src_off len in
  let d = Bigarray.Array1.sub dst dst_off len in
  Bigarray.Array1.blit s d

(* A whole-page fill (the pool zeroing a recycled page) skips [sub],
   which allocates a bigarray header. *)
let fill p ~off ~len c =
  if off = 0 && len = Bigarray.Array1.dim p then Bigarray.Array1.fill p c
  else Bigarray.Array1.fill (Bigarray.Array1.sub p off len) c
