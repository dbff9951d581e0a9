(* Shared helpers: order statistics, weather adjustment, /proc readings,
   benchmark-owned tracing spans and the result line. *)

let now = Unix.gettimeofday

(* {2 Order statistics} *)

(** The [q]-quantile ([q] in (0, 1)) of an unsorted array, by the
    Harrell-Davis estimator: a weighted mean of all order statistics with
    Beta((n+1)q, (n+1)(1-q)) weights. With a few hundred samples a tail
    quantile read off a single order statistic swings with each spike;
    this one moves far less from run to run. *)
let percentile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let alpha = q *. float_of_int (n + 1) and beta = (1. -. q) *. float_of_int (n + 1) in
    let log_pdf x = ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x)) in
    let mode = Float.min 0.999999 (Float.max 1e-6 ((alpha -. 1.) /. (alpha +. beta -. 2.))) in
    let peak = log_pdf mode in
    (* Midpoint rule on [m] points per order statistic's interval. *)
    let m = 16 in
    let w =
      Array.init n (fun i ->
          let acc = ref 0. in
          for j = 0 to m - 1 do
            let x = (float_of_int i +. ((float_of_int j +. 0.5) /. float_of_int m)) /. float_of_int n in
            acc := !acc +. exp (log_pdf x -. peak)
          done;
          !acc)
    in
    let total = Array.fold_left ( +. ) 0. w in
    let v = ref 0. in
    Array.iteri (fun i wi -> v := !v +. (wi *. a.(i))) w;
    !v /. total
  end

let median xs = percentile xs 0.5
let median_l l = median (Array.of_list l)
let sum = Array.fold_left ( +. ) 0.

(* {2 Weather adjustment}

   The kernel runs right before every timed op. [calib_now] for an op is
   the median of the times of [part] of the kernel over the [window] ops
   centred on it: a single 3 ms kernel is itself hit by preemption
   spikes, so a short centred median tracks the weather around the op
   without importing the kernel's own outliers. The window is odd; with
   [window = 3] it holds the kernel right before the op, the one right
   after it and the one before that. [calib_ref] is the reference time of
   the same part. *)

type adjuster = {
  calib_ref : float;
  part : Calib.part;
  window : int;
  mutable kernels : float list;
  mutable count : int;
}

let adjuster ?(part = Calib.Whole) ?(window = 9) calib_ref = { calib_ref; part; window; kernels = []; count = 0 }

(** Run the kernel before an op; returns the op's index on the timeline. *)
let calibrate a =
  a.kernels <- Calib.run_ms a.part :: a.kernels;
  a.count <- a.count + 1;
  a.count - 1

(** [calib_now] of every op on the timeline, by index. *)
let calib_now a =
  let window = a.window in
  let k = Array.of_list (List.rev a.kernels) in
  let n = Array.length k in
  Array.init n (fun i ->
      let lo = max 0 (min (i - (window / 2)) (n - window)) in
      median (Array.sub k lo (min window n)))

(** All kernel times so far: the weather, unadjusted. *)
let kernel_ms a = Array.of_list a.kernels

(** Adjusted milliseconds: [wall × calib_ref / calib_now]. *)
let adjust a ~calib_now wall_ms = wall_ms *. a.calib_ref /. calib_now

(** Adjust timed ops given as (timeline index, wall ms). *)
let adjust_ops a ops =
  let calib = calib_now a in
  Array.of_list (List.map (fun (k, ms) -> adjust a ~calib_now:calib.(k) ms) ops)

(** Median kernel time of [k] fresh runs, for phase-level adjustment. *)
let calib_median a k = median (Array.init k (fun _ -> Calib.run_ms a.part))

(** Run [setup] [n] times, each timed and adjusted by a kernel median
    taken just before it: the median adjusted seconds and the last
    result. *)
let repeat_setup a n setup =
  let times = Array.make n 0. and last = ref None in
  for i = 0 to n - 1 do
    let calib = calib_median a 5 in
    let t0 = now () in
    last := Some (setup ());
    times.(i) <- adjust a ~calib_now:calib ((now () -. t0) *. 1e3) /. 1e3
  done;
  (median times, Option.get !last)

(* {2 /proc} *)

let proc_status_kb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> failwith (key ^ " missing from " ^ path)
        | l when String.starts_with ~prefix:(key ^ ":") l ->
            Scanf.sscanf (String.sub l (String.length key + 1) (String.length l - String.length key - 1))
              " %d" Fun.id
        | _ -> loop ()
      in
      loop ())

(** Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.

(** utime + stime of a process in milliseconds (USER_HZ = 100). *)
let cpu_ms pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of stat, 12 and 13 of [rest]. *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.

(* {2 Spans}

   The benchmark owns its tracer and never installs it, so the program's
   built-in hooks stay off; [span] is a no-op without a tracer. *)

let span tr ?lane ?args name f =
  match tr with
  | None -> f ()
  | Some t -> (
      let cat = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
      Obs.Tracer.span_begin t ?lane ?args ~cat name;
      match f () with
      | v ->
          Obs.Tracer.span_end t ?lane ();
          v
      | exception e ->
          Obs.Tracer.span_end t ?lane ();
          raise e)

type span_totals = { total_ms : float; self_ms : float }

let span_table tr =
  let h = Hashtbl.create 32 in
  List.iter
    (fun (s : Obs.Tracer.span_stat) ->
      Hashtbl.replace h s.Obs.Tracer.ss_name
        { total_ms = s.Obs.Tracer.ss_wall_total *. 1e3; self_ms = s.Obs.Tracer.ss_wall_self *. 1e3 })
    (Obs.Tracer.span_stats tr);
  fun name -> Option.value (Hashtbl.find_opt h name) ~default:{ total_ms = 0.; self_ms = 0. }

(** Mean self time per op of span [name], in ms, over [ops] ops. *)
let self_per_op tbl ~ops name = (tbl name).self_ms /. float_of_int (max 1 ops)

(** Share of the op spans' time not covered by their child spans, in
    percent: the add-up check of the traced run, which fails above
    [addup_tolerance_pct]. *)
let unattributed_pct tbl name =
  let s = tbl name in
  if s.total_ms <= 0. then 0. else 100. *. s.self_ms /. s.total_ms

let addup_tolerance_pct = 5.

(** Write the Chrome trace and check it against the exporter's schema. *)
let export_trace tr path =
  Obs.Export.write_chrome tr path;
  match Obs.Export.validate_chrome (Obs.Export.chrome_json_string tr) with
  | Ok _ -> true
  | Error m ->
      Printf.eprintf "trace %s fails validation: %s\n%!" path m;
      false

(* {2 Result} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** by name; units come from BENCHMARK.json *)
  detail : (string * float) list;  (** raw figures for auditing, not gated *)
}

let json_num name v =
  if not (Float.is_finite v) then
    failwith ("non-finite value for " ^ name)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v
