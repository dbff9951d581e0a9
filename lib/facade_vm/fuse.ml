(* Superinstruction fusion, the first step of compiling a method in tier
   2 ({!Compile_tier}). The linked body is one-for-one with the jir; the
   fuser finds the many-to-one shapes in it —

   - mul+add ([Mul_add], array indexing) and page read+arith
     ([Get_bin]) where the second instruction overwrites the first's
     destination;
   - compare+branch ([Cmp_branch]) when the condition slot is dead at
     the block's exit;
   - over a dead intermediate slot: page read+arith into another slot
     ([Get_bin]), read-modify-write of one page field ([Rmw]), and the
     two [aget] chains ([Aget_get], [Aget_aget]);
   - jump threading: a terminator landing on an empty block takes that
     block's terminator.

   Each fused instruction keeps its source window: [pcs.(i)] is the
   source pc of instruction [i]'s first instruction, and the window ends
   where the next one's starts ([pcs] has one entry more than [code]).
   So the window's length is the steps the fused instruction charges,
   and its first pc is where tier 1 resumes if the instruction deopts.
   A [Cmp_branch]'s compare is the instruction after the block's last
   window, at [pcs.(n)]: the compare's own pc, or, when threading copied
   the compare up from an empty successor, the block's [Rjump], which
   tier 1 replays with the compare after it. *)

open Jir
module R = Resolved

type instr =
  | One of R.instr
  | Mul_add of R.slot * R.operand * R.operand * R.slot * bool
      (* d = x*y + z; the flag is true where the source wrote the
         product as the sum's left operand *)
  | Get_bin of R.slot * R.acc * R.slot * int * Ir.binop * R.operand * bool
      (* d = get(page, off) op operand; the flag is true where the page
         value is the op's left operand *)
  | Rmw of R.acc * R.slot * int * Ir.binop * R.operand * bool
      (* page[off] = page[off] op operand, flagged as [Get_bin] *)
  | Aget_get of R.slot * R.slot * int * R.operand * R.acc * int
      (* d = get(arr[idx], off): dst, array page, elem bytes, index,
         inner access, inner offset *)
  | Aget_aget of R.slot * R.acc * R.slot * int * R.operand * R.slot * int
      (* d = arr2[arr1[idx]]: dst, outer access, arr1 page, arr1 elem
         bytes, idx, arr2 page, arr2 elem bytes *)

type term = Term of R.term | Cmp_branch of Ir.binop * R.operand * R.operand * int * int

type block = { code : instr array; pcs : int array; term : term }

let def = function
  | One i -> R.def i
  | Mul_add (d, _, _, _, _) | Get_bin (d, _, _, _, _, _, _) | Aget_get (d, _, _, _, _, _)
  | Aget_aget (d, _, _, _, _, _, _) ->
      Some d
  | Rmw _ -> None

let iter_uses f = function
  | One i -> R.iter_uses f i
  | Mul_add (_, x, y, z, _) ->
      R.iter_op f x;
      R.iter_op f y;
      f z
  | Get_bin (_, _, p, _, _, s, _) | Rmw (_, p, _, _, s, _) | Aget_get (_, p, _, s, _, _) ->
      f p;
      R.iter_op f s
  | Aget_aget (_, _, arr1, _, idx, arr2, _) ->
      f arr1;
      f arr2;
      R.iter_op f idx

let iter_term_uses f = function
  | Term t -> R.iter_term_uses f t
  | Cmp_branch (_, x, y, _, _) ->
      R.iter_op f x;
      R.iter_op f y

let iter_succs f = function
  | Term (R.Rret_void | R.Rret _) -> ()
  | Term (R.Rjump t) -> f t
  | Term (R.Rbranch (_, t, e)) | Cmp_branch (_, _, _, t, e) ->
      f t;
      f e

let has_succs = function Term (R.Rret_void | R.Rret _) -> false | _ -> true

(* Backward liveness over slots: a slot's write may be dropped only where
   the slot is dead after it. Slot reuse across unrelated temporaries
   makes any whole-body read count useless here. Each block's
   upward-exposed reads (which seed its live-in) and its writes are found
   once; the fixpoint then only ORs byte sets. A block without
   successors has nothing live after it and gets the empty set, so a
   method without a successor edge solves nothing. *)
let live_out_sets nslots (body : block array) =
  let nb = Array.length body in
  if not (Array.exists (fun b -> has_succs b.term) body) then Array.make nb Bytes.empty
  else begin
    let live_in = Array.make nb Bytes.empty and kill = Array.make nb Bytes.empty in
    Array.iteri
      (fun bi b ->
        let gen = Bytes.make nslots '\000' and k = Bytes.make nslots '\000' in
        let read s = Bytes.set gen s '\001' in
        iter_term_uses read b.term;
        for i = Array.length b.code - 1 downto 0 do
          (match def b.code.(i) with
          | Some d ->
              Bytes.set gen d '\000';
              Bytes.set k d '\001'
          | None -> ());
          iter_uses read b.code.(i)
        done;
        live_in.(bi) <- gen;
        kill.(bi) <- k)
      body;
    let live_out =
      Array.map (fun b -> if has_succs b.term then Bytes.make nslots '\000' else Bytes.empty) body
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for bi = nb - 1 downto 0 do
        let out = live_out.(bi) in
        if Bytes.length out > 0 then begin
          iter_succs
            (fun s ->
              let si = live_in.(s) in
              for k = 0 to nslots - 1 do
                if Bytes.get si k <> '\000' then Bytes.set out k '\001'
              done)
            body.(bi).term;
          let li = live_in.(bi) and kl = kill.(bi) in
          for k = 0 to nslots - 1 do
            if Bytes.get out k <> '\000' && Bytes.get kl k = '\000' && Bytes.get li k = '\000'
            then begin
              Bytes.set li k '\001';
              changed := true
            end
          done
        end
      done
    done;
    live_out
  end

let live_at_exit live_out bi s =
  let o = live_out.(bi) in
  Bytes.length o > 0 && Bytes.get o s <> '\000'

(* Whether slot [s] is live just before [b.code.(j)] in block [bi]: the
   first instruction from [j] on that touches [s] decides — a read keeps
   it live, a write kills it — and past the last one the terminator's
   reads and the block's live-out do. *)
let live_from live_out bi b j s =
  let n = Array.length b.code in
  let reads_s = ref false in
  let read u = if u = s then reads_s := true in
  let rec go j =
    if j >= n then begin
      iter_term_uses read b.term;
      !reads_s || live_at_exit live_out bi s
    end
    else begin
      iter_uses read b.code.(j);
      !reads_s || match def b.code.(j) with Some d when d = s -> false | _ -> go (j + 1)
    end
  in
  go j

(* A page value is fused as an op's right operand only where the op
   commutes, so a pinned template may read it first (see
   {!Compile_tier.compile_fused}). *)
let commutative = function Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true | _ -> false

let is_const = function R.Oconst _ -> true | R.Oslot _ -> false
let is_slot s = function R.Oslot u -> u = s | R.Oconst _ -> false

(* Fuse adjacent instructions left to right: [pair i] is what
   instructions [i] and [i + 1] fuse into, if anything, and the fused
   instruction's window joins theirs. *)
let fuse_pairs pair b =
  let n = Array.length b.code in
  let rec go i code pcs =
    if i >= n then (code, b.pcs.(n) :: pcs)
    else
      match if i + 1 < n then pair i else None with
      | Some f -> go (i + 2) (f :: code) (b.pcs.(i) :: pcs)
      | None -> go (i + 1) (b.code.(i) :: code) (b.pcs.(i) :: pcs)
  in
  let code, pcs = go 0 [] [] in
  if List.length code = n then b
  else { b with code = Array.of_list (List.rev code); pcs = Array.of_list (List.rev pcs) }

(* The pairs whose first destination the second overwrites, so the
   intermediate is unobservable. The right-hand cases are narrower than
   the left: a product is fused as the sum's right operand only beside a
   constant factor, and a page value as an op's right operand only
   beside a constant; [dead_pairs] takes the other right-hand page
   values of ops that commute. *)
let adjacent b i =
  match b.code.(i), b.code.(i + 1) with
  | One (R.Rbinop (d, Ir.Mul, x, y)), One (R.Rbinop (d2, Ir.Add, R.Oslot u, R.Oslot v))
    when d2 = d && (u = d) <> (v = d) && (u = d || is_const x || is_const y) ->
      Some (Mul_add (d, x, y, (if u = d then v else u), u = d))
  | One (R.Rget (d, acc, p, off)), One (R.Rbinop (d2, op, x, y)) when d2 = d -> (
      match is_slot d x, is_slot d y with
      | true, false -> Some (Get_bin (d, acc, p, off, op, y, true))
      | false, true when is_const x && commutative op ->
          Some (Get_bin (d, acc, p, off, op, x, false))
      | _ -> None)
  | _ -> None

(* The pairs over an intermediate slot dead after the pair. *)
let dead_pairs live_out bi b i =
  let dead s = not (live_from live_out bi b (i + 2) s) in
  match b.code.(i), b.code.(i + 1) with
  (* d = page[off] op s; page[off] = d. The page slot must differ from
     d, else the store would address the freshly computed value. *)
  | Get_bin (d, a, p, off, op, s, left), One (R.Rset (a2, p2, off2, R.Oslot sd))
    when a2 = a && p2 = p && off2 = off && sd = d && p <> d && dead d ->
      Some (Rmw (a, p, off, op, s, left))
  (* w = arr[idx] (ref read); d = w[off] *)
  | One (R.Raget (w, R.A_i64, arr, eb, idx)), One (R.Rget (d, a, w2, off))
    when w2 = w && dead w ->
      Some (Aget_get (d, arr, eb, idx, a, off))
  (* t = arr1[idx] (i32 index read); d = arr2[t]. arr2 must differ
     from t, else the second aget would address the freshly read
     value. *)
  | One (R.Raget (t, R.A_i32, arr1, eb1, idx)), One (R.Raget (d, a, arr2, eb2, R.Oslot t2))
    when t2 = t && arr2 <> t && dead t ->
      Some (Aget_aget (d, a, arr1, eb1, idx, arr2, eb2))
  (* d = page[off]; d2 = d op y, or y op d where op commutes *)
  | One (R.Rget (d, a, p, off)), One (R.Rbinop (d2, op, x, y)) when d2 = d || dead d -> (
      match is_slot d x, is_slot d y with
      | true, false -> Some (Get_bin (d2, a, p, off, op, y, true))
      | false, true when commutative op -> Some (Get_bin (d2, a, p, off, op, x, false))
      | _ -> None)
  | _ -> None

(* A block ending in [c = x op y; if c] with [c] dead at the exit
   branches on the compare's operands, whose values are unchanged
   between the two points. *)
let fuse_compare live_out bi b =
  let n = Array.length b.code in
  match b.term with
  | Term (R.Rbranch (c, t, e)) when n > 0 && not (live_at_exit live_out bi c) -> (
      match b.code.(n - 1) with
      | One (R.Rbinop (c', op, x, y)) when c' = c ->
          {
            code = Array.sub b.code 0 (n - 1);
            pcs = Array.sub b.pcs 0 n;
            term = Cmp_branch (op, x, y, t, e);
          }
      | _ -> b)
  | _ -> b

(* Jump threading: copying an empty block's terminator up (and skipping
   chains of empty jumps) removes one block transition per loop trip;
   a loop header left holding only a fused compare is the usual case.
   The bypassed blocks ran no instruction, and a copied compare reads
   the same slots at the same state. *)
let thread body =
  let resolve t0 =
    let rec go t seen =
      if List.mem t seen then t
      else match body.(t) with { code = [||]; term = Term (R.Rjump u); _ } -> go u (t :: seen) | _ -> t
    in
    go t0 []
  in
  let thread_term = function
    | Term (R.Rjump t) -> (
        let t = resolve t in
        match body.(t) with
        | { code = [||]; term = Cmp_branch (op, x, y, bt, be); _ } ->
            Cmp_branch (op, x, y, resolve bt, resolve be)
        | { code = [||]; term = Term (R.Rbranch (s, bt, be)); _ } ->
            Term (R.Rbranch (s, resolve bt, resolve be))
        | { code = [||]; term = Term (R.Rret_void | R.Rret _) as tm; _ } -> tm
        | _ -> Term (R.Rjump t))
    | Term (R.Rbranch (s, t, e)) -> Term (R.Rbranch (s, resolve t, resolve e))
    | Cmp_branch (op, x, y, t, e) -> Cmp_branch (op, x, y, resolve t, resolve e)
    | tm -> tm
  in
  Array.map (fun b -> { b with term = thread_term b.term }) body

(* A method's fused body, block for block: the adjacent pairs first,
   then compare+branch, then the pairs over dead intermediates, whose
   liveness reflects the fused compares, then jump threading. *)
let meth (m : R.meth) =
  let nslots = Array.length m.R.m_frame in
  let body =
    Array.map
      (fun (b : R.block) ->
        let n = Array.length b.R.code in
        let b =
          {
            code = Array.map (fun i -> One i) b.R.code;
            pcs = Array.init (n + 1) Fun.id;
            term = Term b.R.term;
          }
        in
        fuse_pairs (adjacent b) b)
      m.R.m_body
  in
  let live_out = live_out_sets nslots body in
  let body' = Array.mapi (fuse_compare live_out) body in
  let live_out = if Array.for_all2 ( == ) body body' then live_out else live_out_sets nslots body' in
  thread (Array.mapi (fun bi b -> fuse_pairs (dead_pairs live_out bi b) b) body')

(* Fused windows in a body, compare+branch included
   (`facade_cli opt-report`'s [fused_pairs]). *)
let windows body =
  Array.fold_left
    (fun n b ->
      let n = match b.term with Cmp_branch _ -> n + 1 | Term _ -> n in
      Array.fold_left (fun n -> function One _ -> n | _ -> n + 1) n b.code)
    0 body
