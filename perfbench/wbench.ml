(* The benchmark's entry point:

     wbench --workload NAME --seed N --seconds S --trace 0|1 \
       --calib-ref-ms MS --calib-ref-cache-ms MS

   Runs one workload and prints, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}: with --trace 0 every
   end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
   metric (a layer the workload's ops do not exercise reads 0). The line
   before it is a detail object with raw figures for auditing the
   weather adjustment. Metric names and units are read from
   BENCHMARK.json in the working directory. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let calib_ref = ref 0.
let calib_ref_cache = ref 0.

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME pagerank-warm | compile-cold");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured time");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
    ("--calib-ref-ms", Arg.Set_float calib_ref, "MS reference calibration-kernel time");
    ("--calib-ref-cache-ms", Arg.Set_float calib_ref_cache, "MS reference time of the kernel's cache part");
  ]

(* (name, unit) of one metric list of BENCHMARK.json. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let open Obs.Json in
  match parse text with
  | Error m -> failwith ("BENCHMARK.json: " ^ m)
  | Ok j ->
      Option.get (Option.bind (member key j) to_list)
      |> List.map (fun m ->
             ( Option.get (Option.bind (member "name" m) to_str),
               Option.get (Option.bind (member "unit" m) to_str) ))

let print_result (r : Util.result) =
  let decl = declared (if !trace = 1 then "per_layer" else "end_to_end") in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n decl) then failwith ("undeclared metric " ^ n))
    r.Util.metrics;
  let metric (n, u) =
    let v =
      match List.assoc_opt n r.Util.metrics with
      | Some v -> v
      | None when !trace = 1 -> 0.
      | None -> failwith ("workload did not measure " ^ n)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (Util.json_num n v) u
  in
  Printf.printf "{\"detail\": {%s}}\n"
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%S: %s" n (Util.json_num n v)) r.Util.detail));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Util.correct r.Util.attempted r.Util.failed
    (String.concat ", " (List.map metric decl))

(* The reference time of the part of the kernel a workload divides by. *)
let ref_ms = function Calib.Whole -> !calib_ref | Calib.Cache -> !calib_ref_cache

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "wbench [options]";
  if !calib_ref <= 0. || !calib_ref_cache <= 0. then failwith "--calib-ref-ms and --calib-ref-cache-ms must be positive";
  if Calib.alloc_words () <> 0. then failwith "calibration kernel allocates on the OCaml heap";
  (try Unix.mkdir "_perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let traced = !trace = 1 in
  let r =
    match !workload with
    | "pagerank-warm" ->
        let part = Pagerank_warm.part in
        let adj = Util.adjuster ~part ~window:Pagerank_warm.window (ref_ms part) in
        Pagerank_warm.run ~adj ~seed:!seed ~seconds:!seconds ~traced
    | "compile-cold" -> Compile_cold.run ~adj:(Util.adjuster !calib_ref) ~seed:!seed ~seconds:!seconds ~traced
    | w -> failwith ("unknown workload " ^ w)
  in
  print_result r
