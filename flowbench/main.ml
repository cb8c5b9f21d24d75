(* The flow benchmark.

     dune exec --root . flowbench/main.exe -- \
       --workload atpg_s510|evaluate_s1423|table1_sweep \
       --seed N --seconds S --trace 0|1

   prints every metric by name with its unit, then, as the last line,
   one JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics of a
   separate traced run with --trace 1.

     dune exec --root . flowbench/main.exe -- --self-test

   shows that each output check counts a corrupted result as failed. *)

module Json = Telemetry.Json

let table_circuits =
  [ "s344"; "s382"; "s444"; "s510"; "s641"; "s713"; "s1196"; "s1238"; "s1423"; "s1494" ]

let workloads =
  [
    ("atpg_s510", (Workloads.atpg, "s510"));
    ("evaluate_s1423", (Workloads.evaluate, "s1423"));
    ("table1_sweep", (Workloads.table1, ""));
  ]

(* name, unit *)
let end_to_end =
  [
    ("setup_s", "s"); ("op_p50_s", "s"); ("op_tail_s", "s"); ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB"); ("fault_coverage_pct", "%"); ("fault_efficiency_pct", "%");
    ("dyn_saving_pct", "%"); ("stat_saving_pct", "%");
  ]

let per_layer =
  let s = "s" and n = "count" and r = "ratio" and mw = "Mw" in
  [
    ("techmap.map_s", s);
    ("atpg.generate_s", s); ("atpg.minor_mw", mw); ("atpg.major_mw", mw);
    ("atpg.vectors", n); ("atpg.detected", n); ("atpg.untestable", n);
    ("atpg.aborted", n); ("atpg.abort_ratio", r);
    ("atpg.random_phase_s", s); ("atpg.podem_phase_s", s); ("atpg.compact_phase_s", s);
    ("atpg.podem.decisions", n); ("atpg.podem.backtracks", n);
    ("atpg.fault_sim.stem_events", n);
    ("scan.measure_s.traditional", s); ("scan.measure_s.enhanced", s);
    ("scan.measure_s.input_control", s); ("scan.measure_s.proposed", s);
    ("scan.minor_mw", mw); ("scan.major_mw", mw);
    ("scan.toggles.traditional", n); ("scan.toggles.enhanced", n);
    ("scan.toggles.input_control", n); ("scan.toggles.proposed", n);
    ("scan.cycles", n); ("scan.ns_per_node_cycle", "ns");
    ("core.c_algorithm_s", s); ("core.mux_select_s", s); ("core.controlled_pattern_s", s);
    ("core.ivc_s", s); ("core.reorder_s", s);
    ("core.muxable", n); ("core.blocked_gates", n); ("core.failed_gates", n);
    ("core.block_ratio", r); ("core.reordered_gates", n);
    ("power.observability_s", s);
    ("runner.job_p50_s", s); ("runner.self_s", s); ("runner.busy_ratio", r);
    ("runner.retries", n); ("runner.crashes", n);
    ("flow.registry_s", s); ("flow.registry_hit_ratio", r);
    ("trace.overhead_ratio", r); ("trace.accounted_ratio", r);
  ]

let report ~trace (o : Workloads.outcome) =
  let tail_p, tail = Stats.tail o.Workloads.op_times in
  let e2e =
    [
      o.Workloads.setup_s; Stats.median o.Workloads.op_times; tail; o.Workloads.ops_per_s;
      o.Workloads.peak_rss_mb; o.Workloads.coverage_pct; o.Workloads.efficiency_pct;
      o.Workloads.dyn_saving_pct; o.Workloads.stat_saving_pct;
    ]
  in
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          (name, unit, Option.value ~default:0.0 (List.assoc_opt name o.Workloads.layers)))
        per_layer
    else List.map2 (fun (name, unit) v -> (name, unit, v)) end_to_end e2e
  in
  List.iter (fun l -> Printf.printf "# %s\n" l) o.Workloads.notes;
  List.iter (fun (name, unit, v) -> Printf.printf "%-32s %18.6f %s\n" name v unit) metrics;
  if not trace then
    Printf.printf "%-32s p%g of n = %d\n" "op_tail_s percentile" tail_p
      (List.length o.Workloads.op_times);
  Printf.printf "%-32s %18.6f (%d failed of %d attempted)\n" "fail_ratio"
    (float_of_int o.Workloads.failed /. float_of_int (max 1 o.Workloads.attempted))
    o.Workloads.failed o.Workloads.attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.Workloads.failed = 0));
            ("attempted", Json.Int o.Workloads.attempted);
            ("failed", Json.Int o.Workloads.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]))

(* Each check, fed a corrupted result on small circuits, must turn a
   clean run (failed = 0) into a failing one. *)
let self_test () =
  let cfg =
    {
      Workloads.seed = 7; seconds = 0.2; trace = false; circuit = "s344";
      table_circuits = [ "s344"; "s382" ];
    }
  in
  let traced = { cfg with Workloads.trace = true; seconds = 0.4 } in
  let cases =
    [
      ("atpg", Workloads.atpg, cfg, None);
      ("atpg", Workloads.atpg, cfg, Some "atpg");
      ("atpg", Workloads.atpg, cfg, Some "table1");
      ("evaluate", Workloads.evaluate, cfg, None);
      ("evaluate", Workloads.evaluate, cfg, Some "scan");
      ("evaluate", Workloads.evaluate, cfg, Some "repeat");
      ("evaluate", Workloads.evaluate, cfg, Some "table1");
      ("evaluate", Workloads.evaluate, traced, None);
      ("evaluate", Workloads.evaluate, traced, Some "evaluate");
      ("table1", Workloads.table1, cfg, None);
      ("table1", Workloads.table1, cfg, Some "sweep");
      ("table1", Workloads.table1, cfg, Some "table1");
    ]
  in
  let ok =
    List.for_all
      (fun (name, run, cfg, corrupt) ->
        Checks.corrupt := corrupt;
        let o = run cfg in
        Checks.corrupt := None;
        let pass = if corrupt = None then o.Workloads.failed = 0 else o.Workloads.failed > 0 in
        Printf.printf "self-test %-8s trace %d corrupt %-8s failed %d of %d: %s\n%!" name
          (Bool.to_int cfg.Workloads.trace)
          (Option.value ~default:"-" corrupt)
          o.Workloads.failed o.Workloads.attempted
          (if pass then "ok" else "WRONG");
        pass)
      cases
  in
  exit (if ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-test\n\
     workloads: atpg_s510 evaluate_s1423 table1_sweep";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-test" ] then self_test ();
  let rec parse acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key -> parse ((key, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some i -> i | None -> usage () in
  let run, circuit =
    match List.assoc_opt (get "--workload") workloads with Some w -> w | None -> usage ()
  in
  let trace = match int "--trace" with 0 -> false | 1 -> true | _ -> usage () in
  let cfg =
    {
      Workloads.seed = int "--seed";
      seconds = float_of_int (int "--seconds");
      trace;
      circuit;
      table_circuits;
    }
  in
  report ~trace (run cfg)
