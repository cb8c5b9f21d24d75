(* The three workloads. Each makes its inputs from the workload seed,
   runs its ops for the given number of seconds, checks the outputs
   outside the timed region and returns what the report needs. Set-up
   times, and the atpg and evaluate op times, are in reference seconds:
   scaled by the host kernel timed in between (see Host). With
   [trace] on, the first half of the time runs untraced ops and the
   second half replays the same inputs traced, so the two halves give
   the tracing overhead. *)

module Flow = Scanpower.Flow
module Sweep = Scanpower.Sweep

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  circuit : string;  (** the atpg and evaluate workloads' circuit *)
  table_circuits : string list;  (** the sweep's circuits *)
}

(* the sweep's workers: nproc on the two-core reference box, fixed so
   the workload is the same on every machine *)
let sweep_jobs = 2

type outcome = {
  setup_s : float;
  op_times : float list;  (** untraced ops that succeeded *)
  ops_per_s : float;  (** untraced ops over their summed time *)
  attempted : int;
  failed : int;
  peak_rss_mb : float;
  coverage_pct : float;
  efficiency_pct : float;
  dyn_saving_pct : float;
  stat_saving_pct : float;
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  notes : string list;
}

let now = Unix.gettimeofday

(* Peak resident set of this process, from the kernel's high-water
   mark; falls back to the OCaml heap's peak where /proc is absent. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ | Scanf.Scan_failure _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* Set up [reps] times and keep the last result and the median time,
   scaled (see Host) and unscaled. The kernel runs about ten times in
   between and once more after. Each set-up starts on an empty minor
   heap: otherwise a millisecond set-up's time depends on how full the
   previous one left it, and the median jumps between runs. *)
let setup ~reps f =
  let every = max 1 (reps / 10) and per = max 1 (10 / reps) in
  let times = ref [] and kernels = ref [] and last = ref None in
  for i = 1 to reps do
    if (i - 1) mod every = 0 then kernels := Host.calibrate per @ !kernels;
    Gc.minor ();
    let t0 = now () in
    last := Some (f ());
    times := (now () -. t0) :: !times
  done;
  let raw = Stats.median !times in
  (Option.get !last, raw *. Host.scale (Host.calibrate per @ !kernels), raw)

type 'a op = {
  index : int;
  result : ('a, string) result;
  wall_s : float;
  scale : float;  (** to reference seconds, the same for every op of a run *)
  obs : (string * float) list;
}

(* Run [f 0], [f 1], ... until [seconds] have passed (at least one op).
   The kernel runs [kernels] times before each op and after the last,
   and its median time scales every op; with [kernels = 0] the ops stay
   unscaled. Traced ops also collect the program's own telemetry, read
   after the op so that reading it is not timed. *)
let timed ~snapshot ~kernels ~seconds f =
  let program = !Trace.enabled && snapshot in
  if program then Telemetry.enable () else Telemetry.disable ();
  let t0 = now () and samples = ref [] in
  let rec go i acc =
    if i > 0 && now () -. t0 >= seconds then List.rev acc
    else begin
      samples := Host.calibrate kernels @ !samples;
      if program then Telemetry.reset ();
      let result, wall_s, obs =
        Trace.op (fun () -> try Ok (f i) with e -> Error (Printexc.to_string e))
      in
      let obs =
        if program then obs @ Trace.of_snapshot ~layers:false (Telemetry.metrics_snapshot ())
        else obs
      in
      go (i + 1) ({ index = i; result; wall_s; scale = 1.0; obs } :: acc)
    end
  in
  let ops = go 0 [] in
  Telemetry.disable ();
  let scale = if kernels = 0 then 1.0 else Host.scale (Host.calibrate kernels @ !samples) in
  List.map (fun o -> { o with scale }) ops

(* Untraced ops for the run's time, or half of it followed by the same
   inputs traced. [snapshot] adds the program's ATPG telemetry to the
   traced ops' observations. *)
let measure ?(snapshot = false) ?(kernels = 1) cfg ~untraced ~traced =
  if not cfg.trace then (timed ~snapshot ~kernels ~seconds:cfg.seconds untraced, [])
  else begin
    let ops = timed ~snapshot ~kernels ~seconds:(cfg.seconds /. 2.0) untraced in
    Trace.enabled := true;
    let tops =
      Fun.protect ~finally:(fun () -> Trace.enabled := false) (fun () ->
          timed ~snapshot ~kernels ~seconds:(cfg.seconds /. 2.0) traced)
    in
    (ops, tops)
  end

(* The untraced ops' summed time, scaled and unscaled. *)
let summed ops =
  (Stats.sum (List.map (fun o -> o.wall_s *. o.scale) ops), Stats.sum (List.map (fun o -> o.wall_s) ops))

(* The unscaled timings and the scale factors, for the record. *)
let host_note ~setup_raw ~setup_s ~ops ~op_raw ~ops_per_s_raw =
  Printf.sprintf
    "host: unscaled setup_s %.6f, op_p50_s %.6f, ops_per_s %.4f; scaled by %.4f in set-up, %.4f among the ops"
    setup_raw (Stats.median op_raw) ops_per_s_raw (setup_s /. setup_raw)
    (match ops with o :: _ -> o.scale | [] -> 1.0)

let ok_value op = match op.result with Ok v -> Some v | Error _ -> None

(* ---- per-layer aggregation ---- *)

let lookup obs k = Option.value ~default:0.0 (List.assoc_opt k obs)

(* Per-op ratios the raw observations imply, where the op made them. *)
let derived obs =
  let g = lookup obs in
  let div a b = if b > 0.0 then a /. b else 0.0 in
  let scan_s =
    List.fold_left
      (fun a p -> a +. g ("scan.measure_s." ^ p))
      0.0
      [ "traditional"; "enhanced"; "input_control"; "proposed" ]
  in
  List.filter_map
    (fun (name, needs, v) -> if List.mem_assoc needs obs then Some (name, v) else None)
    [
      ("atpg.abort_ratio", "atpg.podem.targets",
        div (g "atpg.aborted") (g "atpg.podem.targets"));
      ("core.block_ratio", "core.blocked_gates",
        div (g "core.blocked_gates") (g "core.blocked_gates" +. g "core.failed_gates"));
      ("scan.ns_per_node_cycle", "scan.cycles",
        div (scan_s *. 1e9) (g "scan.cycles" *. g "scan.nodes"));
    ]

(* Every per-layer observation averaged over the ops that made it; a
   layer a workload never ran reads 0. *)
let aggregate (obs_lists : (string * float) list list) =
  let obs_lists = List.map (fun o -> o @ derived o) obs_lists in
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))))
    obs_lists;
  Hashtbl.fold (fun k vs acc -> (k, Stats.mean vs) :: acc) tbl []

let atpg_obs (o : Atpg.Pattern_gen.outcome) =
  let open Atpg.Pattern_gen in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("atpg.vectors", List.length o.vectors);
      ("atpg.detected", o.detected);
      ("atpg.untestable", o.untestable);
      ("atpg.aborted", o.aborted);
    ]

let coverage_pct (s : Flow.atpg_summary) = 100.0 *. s.Flow.coverage

let efficiency_pct (s : Flow.atpg_summary) =
  100.0 *. float_of_int (s.Flow.detected + s.Flow.untestable)
  /. float_of_int s.Flow.total_faults

let savings (c : Flow.comparison) =
  ( Flow.improvement c.Flow.traditional.Flow.dynamic_per_hz_uw
      c.Flow.proposed.Flow.dynamic_per_hz_uw,
    Flow.improvement c.Flow.traditional.Flow.static_uw c.Flow.proposed.Flow.static_uw )

let mean_savings comparisons =
  let s = List.map savings comparisons in
  (Stats.mean (List.map fst s), Stats.mean (List.map snd s))

(* The quality and savings metrics are taken on the Table I points of
   the workload's circuits: the flow's default ATPG configuration and
   evaluate seed 42, as EXPERIMENTS.md Table I. These points do not
   depend on the workload seed, so the metrics read the same on every
   seed and any change in them is a change of the program. Each point
   must also equal its Table I row. *)
let table1_seed = 42

let table1_row (c : Flow.comparison) =
  let d, s = savings c in
  (c.Flow.name, d, s)

(* Traced-vs-untraced figures, from the untraced and traced op times
   and the traced ops' layer sums: the tracing overhead, and the share
   of the untraced op time the layer spans account for. The Amdahl
   check passes when that share is 1 within the overhead (plus 10 % for
   run-to-run noise). *)
let accounting ~untraced ~traced ~layer_sums =
  let base = Stats.mean untraced in
  let overhead = Stats.mean traced /. base in
  let accounted = Stats.mean layer_sums /. base in
  let ok = Float.abs (accounted -. 1.0) <= Float.abs (overhead -. 1.0) +. 0.10 in
  ( [ ("trace.overhead_ratio", overhead); ("trace.accounted_ratio", accounted) ],
    ok,
    Printf.sprintf "amdahl: layer spans cover %.1f%% of the untraced op (tracing overhead %.1f%%): %s"
      (100.0 *. accounted) (100.0 *. (overhead -. 1.0)) (if ok then "ok" else "FAILED") )

let op_accounting cfg ops tops =
  if not cfg.trace then ([], true, "")
  else
    let walls l = List.map (fun o -> o.wall_s) l in
    accounting ~untraced:(walls ops) ~traced:(walls tops)
      ~layer_sums:(List.map (fun o -> lookup o.obs "trace.layer_sum_s") tops)

let hit_ratio hits lookups = if lookups > 0.0 then hits /. lookups else 0.0

let op_times ?(raw = false) ops =
  List.filter_map
    (fun o -> Option.map (fun _ -> if raw then o.wall_s else o.wall_s *. o.scale) (ok_value o))
    ops

let draw_seeds seed k =
  let rng = Random.State.make [| seed |] in
  Array.init k (fun _ -> Random.State.int rng 1_000_000)

let registry_stats () =
  let s = Flow.prepare_stats () in
  ( "flow.registry_hit_ratio",
    hit_ratio (float_of_int s.Flow.p_hits) (float_of_int (s.Flow.p_hits + s.Flow.p_misses)) )

let without_layer_sum = List.filter (fun (k, _) -> k <> "trace.layer_sum_s")

(* The result for input [i]: the first untraced op's, or computed now
   for an input the timed region did not reach. *)
let reference ops i compute =
  match List.find_map (fun o -> if o.index = i then ok_value o else None) ops with
  | Some v -> Ok v
  | None -> ( try Ok (compute i) with e -> Error (Printexc.to_string e))

let first_error results =
  match List.find_map (Result.fold ~ok:(fun () -> None) ~error:Option.some) results with
  | None -> Ok ()
  | Some e -> Error e

let check_note what results =
  match first_error results with
  | Ok () -> Printf.sprintf "check %s: ok" what
  | Error e -> Printf.sprintf "check %s: FAILED %s" what e

(* ---- atpg: cold test generation ---- *)

let atpg cfg =
  let seed i = Random.State.int (Random.State.make [| cfg.seed; i |]) 1_000_000 in
  let config i = { Atpg.Pattern_gen.default_config with seed = seed i } in
  (* Generating one circuit takes ~2 ms. The first dozen or so
     repetitions in a process run up to twice as slow while the heap
     grows, and a window of a few milliseconds catches the host's
     momentary speed, so the set-up repeats for about half a second. *)
  let c, setup_s, setup_raw = setup ~reps:300 (fun () -> Circuits.by_name cfg.circuit) in
  let ops, tops =
    measure ~snapshot:true cfg
      ~untraced:(fun i -> Flow.prepare ~atpg_config:(config i) c)
      ~traced:(fun i -> Layers.prepare ~atpg_config:(config i) c)
  in
  let peak_rss_mb = peak_rss_mb () in
  let untraced = Hashtbl.create 64 in
  List.iter (fun o -> Option.iter (Hashtbl.replace untraced o.index) (ok_value o)) ops;
  (* every test set must pass the Cone check, and a traced
     (recomposed) op must equal the untraced op on the same seed *)
  let check (o : Flow.prepared op) =
    match o.result with
    | Error e -> Error e
    | Ok p ->
      Result.bind (Checks.atpg p) (fun () ->
          match Hashtbl.find_opt untraced o.index with
          | Some r when not (r.Flow.vectors = p.Flow.vectors && r.Flow.atpg = p.Flow.atpg) ->
            Error (Printf.sprintf "traced prepare differs on ATPG seed %d" (seed o.index))
          | _ -> Ok ())
  in
  let op_results = List.map check (ops @ tops) in
  let point_prepared = Flow.prepare c in
  let point = Flow.evaluate ~seed:table1_seed point_prepared in
  let point_check = Checks.table1_row (table1_row point) in
  (* traced runs also recompose the point's evaluate, which measures
     the evaluate layers on this workload's circuit and must equal
     Flow.evaluate *)
  let eval_check, eval_obs =
    if not cfg.trace then (Ok (), [])
    else begin
      Trace.enabled := true;
      let cmp, _, obs =
        Fun.protect ~finally:(fun () -> Trace.enabled := false) (fun () ->
            Trace.op (fun () -> Layers.evaluate ~seed:table1_seed point_prepared))
      in
      (Checks.same_comparison ~what:"evaluate" point cmp, [ without_layer_sum obs ])
    end
  in
  let results = op_results @ (point_check :: (if cfg.trace then [ eval_check ] else [])) in
  let acc_metrics, acc_ok, acc_note = op_accounting cfg ops tops in
  let failed =
    List.length (List.filter Result.is_error results) + if acc_ok then 0 else List.length tops
  in
  let layers =
    if not cfg.trace then []
    else
      aggregate
        (List.filter_map
           (fun o ->
             Option.map (fun (p : Flow.prepared) -> o.obs @ atpg_obs p.Flow.atpg) (ok_value o))
           tops
        @ eval_obs)
      @ acc_metrics
  in
  let dyn, stat = savings point in
  {
    setup_s;
    op_times = op_times ops;
    ops_per_s = float_of_int (List.length ops) /. fst (summed ops);
    attempted = List.length results;
    failed;
    peak_rss_mb;
    coverage_pct = coverage_pct point.Flow.atpg;
    efficiency_pct = efficiency_pct point.Flow.atpg;
    dyn_saving_pct = dyn;
    stat_saving_pct = stat;
    layers;
    notes =
      [
        Printf.sprintf "circuit %s, one ATPG seed per op (first: %s)" cfg.circuit
          (String.concat " " (List.init 8 (fun i -> string_of_int (seed i))));
        check_note
          (Printf.sprintf "atpg (Cone reproduces detected on %d test sets)"
             (List.length op_results))
          op_results;
        check_note "table1 (the Table I point equals EXPERIMENTS.md)" [ point_check ];
        host_note ~setup_raw ~setup_s ~ops ~op_raw:(op_times ~raw:true ops)
          ~ops_per_s_raw:(float_of_int (List.length ops) /. snd (summed ops));
      ]
      @ (if cfg.trace then [ check_note "evaluate (recomposed = Flow.evaluate)" [ eval_check ] ]
         else [])
      @ (if acc_note = "" then [] else [ acc_note ]);
  }

(* ---- evaluate: the core layers and the four scan-sim runs on a warm prepare ---- *)

let evaluate_seeds = 16
let subset_size = 16

let evaluate cfg =
  let k = evaluate_seeds in
  let seeds = draw_seeds cfg.seed k in
  let seed i = seeds.(i mod k) in
  (* traced runs read the program's techmap and ATPG spans from the
     last set-up *)
  if cfg.trace then Telemetry.enable ();
  let (c, p), setup_s, setup_raw =
    setup ~reps:3 (fun () ->
        Telemetry.reset ();
        let c = Circuits.by_name cfg.circuit in
        Flow.clear_prepared ();
        (c, Flow.prepare_cached c))
  in
  let setup_obs =
    if not cfg.trace then []
    else
      List.filter
        (fun (k, _) ->
          String.starts_with ~prefix:"techmap." k || String.starts_with ~prefix:"atpg." k)
        (Trace.of_snapshot ~layers:true (Telemetry.metrics_snapshot ()))
      @ atpg_obs p.Flow.atpg
  in
  Telemetry.disable ();
  let ops, tops =
    measure cfg
      ~untraced:(fun i -> Flow.evaluate ~seed:(seed i) (Flow.prepare_cached c))
      ~traced:(fun i ->
        let p = Trace.span "flow.registry_s" (fun () -> Flow.prepare_cached c) in
        Layers.evaluate ~seed:(seed i) p)
  in
  let peak_rss_mb = peak_rss_mb () in
  let refs = Array.init k (fun s -> reference ops s (fun s -> Flow.evaluate ~seed:(seed s) p)) in
  let atpg_check = Checks.atpg p in
  (* per evaluate seed: Scalar equals Packed on a seeded subset of the
     vectors, for the policies the layers plan *)
  let vectors = Array.of_list p.Flow.vectors in
  let seed_checks =
    Array.mapi
      (fun s r ->
        Result.bind r (fun _ ->
            let rng = Random.State.make [| cfg.seed; s |] in
            let subset =
              List.init (min subset_size (Array.length vectors)) (fun _ ->
                  vectors.(Random.State.int rng (Array.length vectors)))
            in
            Checks.scan ~subset p.Flow.chain (Layers.runs (Layers.plan ~seed:(seed s) p))))
      refs
  in
  (* an untraced op must repeat its seed's reference; a traced op (the
     recomposition) must equal Flow.evaluate on the same seed *)
  let check ~what o =
    Result.bind atpg_check (fun () ->
        Result.bind seed_checks.(o.index mod k) (fun () ->
            match (o.result, refs.(o.index mod k)) with
            | Ok got, Ok reference -> Checks.same_comparison ~what reference got
            | Error e, _ | _, Error e -> Error e))
  in
  let point = Flow.evaluate ~seed:table1_seed p in
  let point_check = Checks.table1_row (table1_row point) in
  let results =
    List.map (fun o -> check ~what:"repeat" o) ops
    @ List.map (fun o -> check ~what:"evaluate" o) tops
  in
  let acc_metrics, acc_ok, acc_note = op_accounting cfg ops tops in
  let failed =
    List.length (List.filter Result.is_error (point_check :: results))
    + if acc_ok then 0 else List.length tops
  in
  let layers =
    if not cfg.trace then []
    else
      aggregate
        (setup_obs
        :: List.map (fun o -> o.obs) (List.filter (fun o -> ok_value o <> None) tops))
      @ acc_metrics @ [ registry_stats () ]
  in
  let dyn, stat = savings point in
  {
    setup_s;
    op_times = op_times ops;
    ops_per_s = float_of_int (List.length ops) /. fst (summed ops);
    attempted = List.length results + 1;
    failed;
    peak_rss_mb;
    coverage_pct = coverage_pct point.Flow.atpg;
    efficiency_pct = efficiency_pct point.Flow.atpg;
    dyn_saving_pct = dyn;
    stat_saving_pct = stat;
    layers;
    notes =
      [
        Printf.sprintf "circuit %s, %d vectors, evaluate seeds %s" cfg.circuit
          (Array.length vectors)
          (String.concat " " (Array.to_list (Array.map string_of_int seeds)));
        check_note "atpg (Cone reproduces detected)" [ atpg_check ];
        check_note
          (Printf.sprintf "evaluate (%d ops: scalar = packed on %d vectors per seed, traced = Flow.evaluate)"
             (List.length results) subset_size)
          results;
        check_note "table1 (the Table I point equals EXPERIMENTS.md)" [ point_check ];
        host_note ~setup_raw ~setup_s ~ops ~op_raw:(op_times ~raw:true ops)
          ~ops_per_s_raw:(float_of_int (List.length ops) /. snd (summed ops));
      ]
      @ (if acc_note = "" then [] else [ acc_note ]);
  }

(* ---- table1_sweep: the Table I circuits through the forked sweep runner ---- *)

(* The workers' peak OCaml heap, from the [flow.peak_heap_words] gauge
   each job's telemetry carries. Jobs run in forked workers, whose
   memory the parent's VmHWM does not see. A worker's heap starts as a
   copy of the parent's, which grows with every pass's results, so only
   the first pass is taken: it is forked from the same parent state in
   every run. *)
let workers_peak_heap_mb jobs =
  List.fold_left
    (fun acc (j : Sweep.job_result) ->
      match Option.bind j.Sweep.telemetry (Telemetry.Json.member "gauges") with
      | Some g ->
        Float.max acc
          (Trace.number (Telemetry.Json.member "flow.peak_heap_words" g)
          *. float_of_int (Sys.word_size / 8) /. 1048576.0)
      | None -> acc)
    0.0 jobs

let table1 cfg =
  (* every pass runs each circuit at the Table I job seed and at one
     drawn from the workload seed: twenty jobs, so even two passes give
     the tail percentile its forty samples *)
  let seeds = [ table1_seed; (draw_seeds cfg.seed 1).(0) ] in
  let circuits, setup_s, setup_raw =
    setup ~reps:60 (fun () -> List.map Circuits.by_name cfg.table_circuits)
  in
  let n_circuits = List.length circuits in
  let pass _ =
    let t0 = now () in
    let r = Sweep.run ~jobs:sweep_jobs (Sweep.points ~seeds circuits) in
    (r, now () -. t0)
  in
  (* The passes stay unscaled. Two workers run on both cores for about
     11 s, and the kernel, run on one core between passes, did not
     follow them: scaled by it, the spread of ten runs' op_p50_s and
     ops_per_s grew from 0.17 and 0.07 to 0.23 and 0.24. *)
  let passes, tpasses = measure ~kernels:0 cfg ~untraced:pass ~traced:pass in
  let jobs_of l =
    List.concat_map
      (fun o -> match o.result with Ok (r, _) -> r.Sweep.results | Error _ -> [])
      l
  in
  let per_pass = n_circuits * List.length seeds in
  let raised l =
    List.fold_left (fun a o -> if Result.is_error o.result then a + per_pass else a) 0 l
  in
  let jobs = jobs_of passes and tjobs = jobs_of tpasses in
  let peak_rss_mb = workers_peak_heap_mb (jobs_of (List.filteri (fun i _ -> i = 0) passes)) in
  (* the reference: every point of both seeds run in-process at jobs = 1 *)
  let reference =
    (Sweep.run ~jobs:1 ~capture_telemetry:false
       (Sweep.points ~seeds circuits)).Sweep.results
  in
  let ref_of (j : Sweep.job_result) =
    List.find_opt
      (fun (r : Sweep.job_result) -> r.Sweep.circuit = j.Sweep.circuit && r.Sweep.seed = j.Sweep.seed)
      reference
    |> Fun.flip Option.bind (fun r -> Result.to_option r.Sweep.comparison)
  in
  let job_ok (j : Sweep.job_result) =
    match (j.Sweep.comparison, ref_of j) with
    | Ok got, Some reference -> Checks.same_comparison ~what:"sweep" reference got = Ok ()
    | _ -> false
  in
  let failed_jobs = List.length (List.filter (fun j -> not (job_ok j)) (jobs @ tjobs)) in
  let durations l =
    List.filter_map
      (fun (j : Sweep.job_result) -> if Result.is_ok j.Sweep.comparison then Some j.Sweep.duration_s else None)
      l
  in
  let at_seed s =
    List.filter_map
      (fun (r : Sweep.job_result) ->
        if r.Sweep.seed = s then Result.to_option r.Sweep.comparison else None)
      reference
  in
  let points = at_seed table1_seed in
  let dyn, stat = mean_savings points in
  let summaries = List.map (fun c -> c.Flow.atpg) points in
  let rows = List.map table1_row points in
  let row_checks = List.map Checks.table1_row rows in
  (* a circuit whose point raised has no row, and fails too *)
  let failed_rows = n_circuits - List.length (List.filter Result.is_ok row_checks) in
  (* per-layer: each traced job's worker telemetry, plus the runner's
     own share of the job (fork, marshal, scheduling) *)
  let job_obs (j : Sweep.job_result) =
    match (j.Sweep.comparison, j.Sweep.telemetry) with
    | Ok cmp, Some snap ->
      let root =
        match Telemetry.Json.member "spans" snap with
        | Some (Telemetry.Json.List roots) ->
          Stats.sum (List.map (fun s -> Trace.number (Telemetry.Json.member "duration_s" s)) roots)
        | _ -> 0.0
      in
      let runner_self = j.Sweep.duration_s -. root in
      let obs = Trace.of_snapshot ~layers:true snap in
      let nodes =
        List.find_map
          (fun c -> if Netlist.Circuit.name c = j.Sweep.circuit then Some (Netlist.Circuit.node_count c) else None)
          circuits
      in
      let tech name (t : Flow.technique_result) = ("scan.toggles." ^ name, float_of_int t.Flow.total_toggles) in
      Some
        (List.map (fun (k, v) -> if k = "trace.layer_sum_s" then (k, v +. runner_self) else (k, v)) obs
        @ [
            ("runner.self_s", runner_self);
            ("scan.nodes", float_of_int (Option.value ~default:0 nodes));
            tech "traditional" cmp.Flow.traditional;
            tech "enhanced" cmp.Flow.enhanced_scan;
            tech "input_control" cmp.Flow.input_control;
            tech "proposed" cmp.Flow.proposed;
          ]
        @ List.map
            (fun (k, v) -> (k, float_of_int v))
            [
              ("atpg.vectors", cmp.Flow.n_vectors);
              ("atpg.detected", cmp.Flow.atpg.Flow.detected);
              ("atpg.untestable", cmp.Flow.atpg.Flow.untestable);
              ("atpg.aborted", cmp.Flow.atpg.Flow.aborted);
              ("core.muxable", cmp.Flow.n_muxable);
              ("core.blocked_gates", cmp.Flow.blocked_gates);
              ("core.failed_gates", cmp.Flow.failed_gates);
              ("core.reordered_gates", cmp.Flow.reordered_gates);
            ])
    | _ -> None
  in
  let layers, acc_ok, acc_note =
    if not cfg.trace then ([], true, "")
    else begin
      let tobs = List.filter_map job_obs tjobs in
      let acc_metrics, ok, note =
        accounting ~untraced:(durations jobs) ~traced:(durations tjobs)
          ~layer_sums:(List.map (fun o -> lookup o "trace.layer_sum_s") tobs)
      in
      let all_passes = List.filter_map (fun o -> ok_value o) (passes @ tpasses) in
      let sum_stat f =
        float_of_int (List.fold_left (fun a (r, _) -> a + f r.Sweep.stats) 0 all_passes)
      in
      let all_durations = durations (jobs @ tjobs) in
      let s k = Stats.sum (List.map (fun o -> lookup o k) tobs) in
      ( aggregate tobs @ acc_metrics
        @ [
            ("runner.job_p50_s", Stats.median all_durations);
            ( "runner.busy_ratio",
              Stats.sum all_durations
              /. (float_of_int sweep_jobs *. Stats.sum (List.map snd all_passes)) );
            ("runner.retries", sum_stat (fun st -> st.Runner.retries));
            ("runner.crashes", sum_stat (fun st -> st.Runner.crashes));
            ( "flow.registry_hit_ratio",
              hit_ratio (s "flow.registry_hits")
                (s "flow.registry_hits" +. s "flow.registry_misses") );
          ],
        ok,
        note )
    end
  in
  {
    setup_s;
    op_times = durations jobs;
    ops_per_s = float_of_int (List.length jobs) /. fst (summed passes);
    attempted =
      List.length jobs + List.length tjobs + raised passes + raised tpasses + n_circuits;
    failed =
      failed_jobs + raised passes + raised tpasses + failed_rows
      + (if acc_ok then 0 else List.length tjobs);
    peak_rss_mb;
    coverage_pct = Stats.mean (List.map coverage_pct summaries);
    efficiency_pct = Stats.mean (List.map efficiency_pct summaries);
    dyn_saving_pct = dyn;
    stat_saving_pct = stat;
    layers;
    notes =
      Printf.sprintf "%d circuits x job seeds %s, %d workers; reference: in-process jobs = 1"
        n_circuits (String.concat " " (List.map string_of_int seeds)) sweep_jobs
      :: List.map
           (fun (n, d, s) -> Printf.sprintf "seed %d  %-6s dyn%% %6.2f  stat%% %6.2f" table1_seed n d s)
           rows
      @ [
          check_note
            (Printf.sprintf "table1 (%d of %d rows equal EXPERIMENTS.md Table I)"
               (n_circuits - failed_rows) n_circuits)
            row_checks;
          Printf.sprintf "check sweep: %d of %d jobs differ from the reference"
            failed_jobs (List.length jobs + List.length tjobs);
          host_note ~setup_raw ~setup_s ~ops:passes ~op_raw:(durations jobs)
            ~ops_per_s_raw:(float_of_int (List.length jobs) /. snd (summed passes));
        ]
      @ (if acc_note = "" then [] else [ acc_note ]);
  }
