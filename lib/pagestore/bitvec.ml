let bits_per_word = 62

(* The word cells are created on demand: acquisition is lowest-first, so
   a word is needed only once every word below it is full. The array of
   cells grows by doubling and is swapped in with a compare-and-set; a
   grown array shares every existing cell, so a bit set through an older
   array is the same bit in the newer one. *)
type t = {
  n : int;
  words : int Atomic.t array Atomic.t;
}

let create n =
  if n <= 0 then invalid_arg "Bitvec.create: non-positive length";
  { n; words = Atomic.make [| Atomic.make 0 |] }

let length t = t.n

let valid_bits t w =
  (* Number of meaningful bits in word [w]. *)
  min bits_per_word (t.n - (w * bits_per_word))

(* Reference implementation: linear scan. Kept for the pinning tests. *)
let lowest_clear_scan v ~limit =
  let rec go i = if i >= limit then -1 else if v land (1 lsl i) = 0 then i else go (i + 1) in
  go 0

(* De Bruijn multiplication table for bit-scan-forward over 64-bit words
   (constant 0x03f79d71b4cb0a89). *)
let debruijn64 = 0x03f79d71b4cb0a89L

let debruijn_index =
  [|
    0; 1; 48; 2; 57; 49; 28; 3; 61; 58; 50; 42; 38; 29; 17; 4;
    62; 55; 59; 36; 53; 51; 43; 22; 45; 39; 33; 30; 24; 18; 12; 5;
    63; 47; 56; 27; 60; 41; 37; 16; 54; 35; 52; 21; 44; 32; 23; 11;
    46; 26; 40; 15; 34; 20; 31; 10; 25; 14; 19; 9; 13; 8; 7; 6;
  |]

(* Index of the lowest clear bit among the low [limit] bits, or -1.
   Constant time: complement, isolate the lowest set bit, and look its
   position up via a de Bruijn multiply. The multiply runs in Int64
   because a 62-bit isolated bit times the 64-bit constant does not fit
   OCaml's 63-bit native int. *)
let lowest_clear v ~limit =
  if limit <= 0 then -1
  else
    (* At [limit = 62] the shift wraps so that the subtraction yields
       [max_int] — exactly bits 0..61 set, the mask we want. *)
    let mask = (1 lsl limit) - 1 in
    let inv = lnot v land mask in
    if inv = 0 then -1
    else
      let bit = inv land -inv in
      debruijn_index.(Int64.(
        to_int (shift_right_logical (mul (of_int bit) debruijn64) 58)))

(* Install a larger cell array than [words] (doubled, capped at the
   length's word count) and return the current one. A lost race means
   another domain installed a larger array already. *)
let grow t words =
  let n = Array.length words in
  let nwords = (t.n + bits_per_word - 1) / bits_per_word in
  let bigger =
    Array.init (min nwords (2 * n)) (fun w ->
        if w < n then words.(w) else Atomic.make 0)
  in
  ignore (Atomic.compare_and_set t.words words bigger);
  Atomic.get t.words

let acquire_first_free t =
  let rec try_word words w =
    if w >= Array.length words then
      if w * bits_per_word >= t.n then None else try_word (grow t words) w
    else
      let v = Atomic.get words.(w) in
      match lowest_clear v ~limit:(valid_bits t w) with
      | -1 -> try_word words (w + 1)
      | b ->
          if Atomic.compare_and_set words.(w) v (v lor (1 lsl b)) then
            Some ((w * bits_per_word) + b)
          else try_word words w (* contention: retry the same word *)
  in
  try_word (Atomic.get t.words) 0

(* Word [w]'s cell, or [None] while the word has not been created (all
   its bits clear). *)
let cell t w =
  let words = Atomic.get t.words in
  if w < Array.length words then Some words.(w) else None

let clear t i =
  if i < 0 || i >= t.n then invalid_arg "Bitvec.clear: index out of range";
  let b = i mod bits_per_word in
  let rec loop cell =
    let v = Atomic.get cell in
    if v land (1 lsl b) = 0 then invalid_arg "Bitvec.clear: bit already clear";
    if not (Atomic.compare_and_set cell v (v land lnot (1 lsl b))) then loop cell
  in
  match cell t (i / bits_per_word) with
  | Some c -> loop c
  | None -> invalid_arg "Bitvec.clear: bit already clear"

let is_set t i =
  if i < 0 || i >= t.n then invalid_arg "Bitvec.is_set: index out of range";
  match cell t (i / bits_per_word) with
  | Some c -> Atomic.get c land (1 lsl (i mod bits_per_word)) <> 0
  | None -> false

let count_set t =
  Array.fold_left
    (fun acc w ->
      let v = ref (Atomic.get w) and c = ref 0 in
      while !v <> 0 do
        v := !v land (!v - 1);
        incr c
      done;
      acc + !c)
    0 (Atomic.get t.words)
