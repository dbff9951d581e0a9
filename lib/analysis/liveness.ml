open Jir

module Bits = struct
  type t = int array

  let w = Sys.int_size
  let create n = Array.make ((n + w - 1) / w) 0
  let mem s i = s.(i / w) land (1 lsl (i mod w)) <> 0
  let add s i = s.(i / w) <- s.(i / w) lor (1 lsl (i mod w))
  let remove s i = s.(i / w) <- s.(i / w) land lnot (1 lsl (i mod w))
end

module S = Dataflow.Solver (struct
  type t = Bits.t

  let equal = Array.for_all2 Int.equal
  let join = Array.map2 ( lor )
end)

type site = { ins : Ir.instr; def : int; reads : int array }

type frame = {
  ids : int Stbl.t;
  cfg : Cfg.t;
  sites : site list array;
  term_reads : int array array;
}

let frame (m : Ir.meth) =
  let ids = Stbl.create 16 in
  let id v =
    match Stbl.find ids v with
    | i -> i
    | exception Not_found ->
        let i = Stbl.length ids in
        Stbl.add ids v i;
        i
  in
  let reads_of vs = Array.of_list (List.map id vs) in
  let sites =
    Array.map
      (fun (blk : Ir.block) ->
        List.map
          (fun ins ->
            let def = match Defuse.def ins with Some d -> id d | None -> -1 in
            { ins; def; reads = reads_of (Defuse.uses ins) })
          blk.Ir.instrs)
      m.Ir.body
  in
  let term_reads =
    Array.map (fun (blk : Ir.block) -> reads_of (Defuse.term_uses blk.Ir.term)) m.Ir.body
  in
  { ids; cfg = Cfg.of_method m; sites; term_reads }

type t = { vars : int Stbl.t; live_in : Bits.t array; live_out : Bits.t array }

(* Each block's gen (read before any def in the block, terminator
   included) and kill (defined in the block) sets, then the backward
   fixpoint: in = gen | (out & ~kill). *)
let solve fr =
  let n = Stbl.length fr.ids in
  let nb = fr.cfg.Cfg.nblocks in
  let gen = Array.init nb (fun _ -> Bits.create n) in
  let kill = Array.init nb (fun _ -> Bits.create n) in
  for b = 0 to nb - 1 do
    Array.iter (Bits.add gen.(b)) fr.term_reads.(b);
    List.iter
      (fun st ->
        if st.def >= 0 then begin
          Bits.remove gen.(b) st.def;
          Bits.add kill.(b) st.def
        end;
        Array.iter (Bits.add gen.(b)) st.reads)
      (List.rev fr.sites.(b))
  done;
  let r =
    S.solve ~dir:Dataflow.Backward ~cfg:fr.cfg ~init:(Bits.create n) ~bottom:(Bits.create n)
      ~transfer:(fun b out -> Array.mapi (fun k o -> gen.(b).(k) lor (o land lnot kill.(b).(k))) out)
  in
  { vars = fr.ids; live_in = r.S.inb; live_out = r.S.outb }

let analyze m = solve (frame m)

let mem_named r sets b v =
  match Stbl.find_opt r.vars v with Some i -> Bits.mem sets.(b) i | None -> false

let live_in r b v = mem_named r r.live_in b v
let live_out r b v = mem_named r r.live_out b v
