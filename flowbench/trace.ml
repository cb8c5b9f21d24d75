(* The benchmark's own spans around calls into each layer. Off by
   default, where [span] is exactly [f ()]. When on, every span adds
   its wall time under its name and the words it allocated
   ([Gc.quick_stat] deltas) under [<layer>.minor_mw]/[<layer>.major_mw]
   to the current op's observations, and its time to the op's layer
   sum, which the Amdahl check compares with the op's wall time. *)

let enabled = ref false
let current : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  if !enabled then
    Hashtbl.replace current name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt current name))

let set name v = if !enabled then Hashtbl.replace current name v

let span ?layer name f =
  if not !enabled then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    add name dt;
    add "trace.layer_sum_s" dt;
    Option.iter
      (fun l ->
        add (l ^ ".minor_mw") ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
        add (l ^ ".major_mw") ((g1.Gc.major_words -. g0.Gc.major_words) /. 1e6))
      layer;
    r
  end

(* Run one op and return its result, wall time and observations (empty
   when tracing is off). *)
let op f =
  Hashtbl.reset current;
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let obs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) current [] in
  Hashtbl.reset current;
  (r, dt, obs)

(* ---- the program's own telemetry, read through its public snapshot ---- *)

module Json = Telemetry.Json

let rec spans_named name acc = function
  | Json.Obj _ as s ->
    let acc =
      if Json.member "name" s = Some (Json.String name) then s :: acc else acc
    in
    (match Json.member "children" s with
    | Some (Json.List kids) -> List.fold_left (spans_named name) acc kids
    | _ -> acc)
  | _ -> acc

let number = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

(* Program span name -> (benchmark metric, allocation layer). *)
let layer_spans =
  [
    ("techmap", "techmap.map_s", None);
    ("atpg", "atpg.generate_s", Some "atpg");
    ("scan_sim.traditional", "scan.measure_s.traditional", Some "scan");
    ("scan_sim.enhanced", "scan.measure_s.enhanced", Some "scan");
    ("scan_sim.input_control", "scan.measure_s.input_control", Some "scan");
    ("scan_sim.proposed", "scan.measure_s.proposed", Some "scan");
    ("c_algorithm", "core.c_algorithm_s", None);
    ("mux_select", "core.mux_select_s", None);
    ("controlled_pattern", "core.controlled_pattern_s", None);
    ("ivc", "core.ivc_s", None);
    ("reorder", "core.reorder_s", None);
    ("observability", "power.observability_s", None);
  ]

let phase_spans =
  [
    ("atpg.random_phase", "atpg.random_phase_s");
    ("atpg.podem_phase", "atpg.podem_phase_s");
    ("atpg.compact_phase", "atpg.compact_phase_s");
  ]

let atpg_counters =
  [
    ("atpg.podem.decisions", "atpg.podem.decisions");
    ("atpg.podem.backtracks", "atpg.podem.backtracks");
    ("atpg.podem.faults", "atpg.podem.targets");
    ("atpg.fault_sim.stem_events", "atpg.fault_sim.stem_events");
  ]

let flow_counters =
  [
    ("scan.sim.cycles", "scan.cycles");
    ("flow.prepare_memo.hit", "flow.registry_hits");
    ("flow.prepare_memo.miss", "flow.registry_misses");
  ]

(* Observations from one telemetry snapshot: ATPG phase spans and work
   counters always; with [~layers] also every layer span and the scan
   and registry counters (used for sweep jobs, whose layers run inside
   forked workers where the benchmark cannot wrap them). *)
let of_snapshot ~layers snap =
  let roots =
    match Json.member "spans" snap with Some (Json.List l) -> l | _ -> []
  in
  let named name = List.fold_left (spans_named name) [] roots in
  let total f name = List.fold_left (fun a s -> a +. f s) 0.0 (named name) in
  let dur s = number (Json.member "duration_s" s) in
  let gc key s =
    match Json.member "gc" s with
    | Some g -> number (Json.member key g) /. 1e6
    | None -> 0.0
  in
  let phases = List.map (fun (n, m) -> (m, total dur n)) phase_spans in
  let counts =
    List.map
      (fun (n, m) ->
        ( m,
          match Json.member "counters" snap with
          | Some cs -> number (Json.member n cs)
          | None -> 0.0 ))
      (if layers then atpg_counters @ flow_counters else atpg_counters)
  in
  let layer_obs =
    if not layers then []
    else
      let tbl = Hashtbl.create 16 in
      let bump k v =
        Hashtbl.replace tbl k
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
      in
      List.iter
        (fun (n, m, layer) ->
          let d = total dur n in
          bump m d;
          bump "trace.layer_sum_s" d;
          Option.iter
            (fun l ->
              bump (l ^ ".minor_mw") (total (gc "minor_words") n);
              bump (l ^ ".major_mw") (total (gc "major_words") n))
            layer)
        layer_spans;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  in
  phases @ counts @ layer_obs
