module Heap = Heapsim.Heap
module Clock = Heapsim.Sim_clock
module Store = Pagestore.Store

type result = {
  top : (string * int) list;
  total_tokens : int;
  distinct : int;
}

let chunk = 8192

(* Paged group record layout: count i64 at offset 4, key bytes after. *)
let entry_type = 1
let count_off = 4

let top_k k counts =
  let all = List.of_seq counts in
  let cmp (w1, c1) (w2, c2) = if c1 <> c2 then compare c2 c1 else String.compare w1 w2 in
  let sorted = List.sort cmp all in
  List.filteri (fun i _ -> i < k) sorted

let run config (corpus : Workloads.Text_gen.t) =
  Engine.with_run config (fun c ->
      let cost = (Engine.cfg c).Engine.cost in
      let words = Engine.machine_slice config corpus.Workloads.Text_gen.words in
      let n = Array.length words in
      (match Engine.store c with
      | Some s -> Store.iteration_start s ~thread:0
      | None -> ());
      let counts : (string, int) Hashtbl.t = Hashtbl.create 1024 in
      let records : (string, Pagestore.Addr.t) Hashtbl.t = Hashtbl.create 1024 in
      let process_token_object w =
        (match Hashtbl.find_opt counts w with
        | Some k -> Hashtbl.replace counts w (k + 1)
        | None ->
            Hashtbl.replace counts w 1;
            (* String + HashMap.Entry + boxed count: data objects that stay
               live for the whole operator. *)
            Heap.alloc_many (Engine.heap c) ~lifetime:Heap.Permanent
              ~bytes_each:(cost.Hcost.entry_bytes_object / 2)
              ~count:2;
            Engine.note_data_objects c 2);
        (* The per-token String and tuple are also data objects; they die
           young. *)
        Engine.note_data_objects c 2
      in
      let process_token_facade store w =
        match Hashtbl.find_opt records w with
        | Some addr ->
            let k = Store.get_i64 store addr ~offset:count_off in
            Store.set_i64 store addr ~offset:count_off (k + 1)
        | None ->
            let len = String.length w in
            let addr =
              Store.alloc_record store ~thread:0 ~type_id:entry_type
                ~data_bytes:(cost.Hcost.entry_overhead_facade + len)
            in
            Store.set_i64 store addr ~offset:count_off 1;
            String.iteri
              (fun i ch -> Store.set_i8 store addr ~offset:(count_off + 8 + i) (Char.code ch))
              w;
            Engine.note_record c;
            Hashtbl.replace records w addr;
            (* The hash index slot is control-path heap state. *)
            Heap.alloc (Engine.heap c) ~lifetime:Heap.Permanent ~bytes:16
      in
      let per_token_cost =
        match config.Engine.mode with
        | Engine.Object_mode ->
            cost.Hcost.scan_per_token +. cost.Hcost.map_per_token_object
            +. cost.Hcost.probe_per_token_object
        | Engine.Facade_mode ->
            cost.Hcost.scan_per_token +. cost.Hcost.map_per_token_facade
            +. cost.Hcost.probe_per_token_facade
      in
      let temps_per_token =
        match config.Engine.mode with
        | Engine.Object_mode -> cost.Hcost.temps_per_token_object
        | Engine.Facade_mode -> cost.Hcost.temps_per_token_facade
      in
      let i = ref 0 in
      while !i < n do
        let hi = min n (!i + chunk) in
        (* Charge the chunk's compute first, so an OOM mid-stream reports a
           meaningful OME(t). *)
        Engine.charge c Clock.Update
          (Engine.parallel_time c (float_of_int (hi - !i) *. per_token_cost));
        Engine.alloc_temps c
          ~count:(int_of_float (float_of_int (hi - !i) *. temps_per_token));
        (match Engine.store c with
        | None ->
            for j = !i to hi - 1 do
              process_token_object words.(j)
            done
        | Some store ->
            for j = !i to hi - 1 do
              process_token_facade store words.(j)
            done;
            Engine.sync_native c);
        i := hi
      done;
      let distinct =
        match Engine.store c with
        | None -> Hashtbl.length counts
        | Some _ -> Hashtbl.length records
      in
      Engine.note_distinct c distinct;
      (* Shuffle the local aggregates and reduce. *)
      Engine.charge c Clock.Update
        (float_of_int (corpus.Workloads.Text_gen.total_bytes / config.Engine.machines)
        *. cost.Hcost.shuffle_per_byte);
      Engine.charge c Clock.Update
        (Engine.parallel_time c (float_of_int distinct *. cost.Hcost.reduce_per_key));
      (match config.Engine.mode with
      | Engine.Object_mode ->
          Heap.alloc_many (Engine.heap c) ~lifetime:Heap.Permanent ~bytes_each:64
            ~count:distinct;
          Engine.note_data_objects c distinct
      | Engine.Facade_mode -> ());
      (* Read the final counts back (in P' this exercises the records). *)
      let final_counts =
        match Engine.store c with
        | None -> Hashtbl.to_seq counts
        | Some store ->
            Seq.map
              (fun (w, addr) -> (w, Store.get_i64 store addr ~offset:count_off))
              (Hashtbl.to_seq records)
      in
      let top = top_k 20 final_counts in
      (match Engine.store c with
      | Some s ->
          Store.iteration_end s ~thread:0;
          Engine.sync_native c
      | None -> ());
      { top; total_tokens = n; distinct })
