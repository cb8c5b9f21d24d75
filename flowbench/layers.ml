(* [Flow.prepare] and [Flow.evaluate] recomposed from the same public
   calls, each wrapped in a benchmark span. The results must equal the
   flow's own (checked by the workloads), so the per-layer times
   describe exactly the work the flow does. *)

open Netlist
module Flow = Scanpower.Flow
module Sim = Scan.Scan_sim

let span = Trace.span

let prepare ?atpg_config c =
  (match Validate.errors (Validate.circuit c) with
  | [] -> ()
  | errs -> failwith (Validate.summary errs));
  let c =
    span "techmap.map_s" (fun () ->
        if Techmap.Mapper.is_mapped c then c else Techmap.Mapper.map c)
  in
  let atpg =
    span ~layer:"atpg" "atpg.generate_s" (fun () ->
        Atpg.Pattern_gen.generate ?config:atpg_config c)
  in
  {
    Flow.circuit = c;
    chain = Scan.Scan_chain.natural c;
    vectors = atpg.Atpg.Pattern_gen.vectors;
    atpg;
  }

(* One scan-simulation run of the flow: the circuit it runs on (the
   proposed structure runs on the reordered copy) and its policy. *)
type scan_run = { policy_name : string; circuit : Circuit.t; policy : Sim.policy }

let technique (m : Sim.result) =
  {
    Flow.dynamic_per_hz_uw = m.Sim.dynamic.Power.Switching.dynamic_per_hz_uw;
    static_uw = m.Sim.avg_static_uw;
    peak_static_uw = m.Sim.peak_static_uw;
    total_toggles = m.Sim.total_toggles;
  }

(* The core and power layers: the policies of the four scan runs. *)
type plan = {
  traditional : scan_run;
  enhanced : scan_run;
  input_control : scan_run;
  proposed : scan_run;
  muxable : int;
  blocked : int;
  failed : int;
  reordered : int;
}

let runs plan = [ plan.traditional; plan.enhanced; plan.input_control; plan.proposed ]

let plan ~seed (p : Flow.prepared) =
  let c = p.Flow.circuit in
  let ic =
    span "core.c_algorithm_s" (fun () ->
        Scanpower.C_algorithm.find ~seed:(seed + 1) c)
  in
  let mux = span "core.mux_select_s" (fun () -> Scanpower.Mux_insertion.select c) in
  let muxable = mux.Scanpower.Mux_insertion.muxable in
  let obs = span "power.observability_s" (fun () -> Power.Observability.compute c) in
  let cp =
    span "core.controlled_pattern_s" (fun () ->
        Scanpower.Controlled_pattern.find
          ~direction:(Scanpower.Justify.Leakage_directed obs) c ~muxable)
  in
  let filled =
    span "core.ivc_s" (fun () ->
        Scanpower.Ivc.fill ~seed:(seed + 2) c
          ~values:cp.Scanpower.Controlled_pattern.values
          ~controlled:cp.Scanpower.Controlled_pattern.controlled)
  in
  let values = filled.Scanpower.Ivc.values in
  let concrete id = values.(id) = Logic.One in
  (* the proposed structure runs on a reordered copy, so the baselines
     keep the original pin order *)
  let c' = Circuit.copy c in
  let reorder =
    span "core.reorder_s" (fun () -> Scanpower.Input_reorder.optimize c' ~values)
  in
  let run policy_name circuit policy = { policy_name; circuit; policy } in
  let plan =
    {
      traditional = run "traditional" c Sim.traditional;
      enhanced = run "enhanced" c Sim.enhanced_scan;
      input_control =
        run "input_control" c
          {
            Sim.pi_during_shift = Some ic.Scanpower.C_algorithm.pi_pattern;
            forced_pseudo = [];
            hold_previous_capture = false;
          };
      proposed =
        run "proposed" c'
          {
            Sim.pi_during_shift = Some (Array.map concrete (Circuit.inputs c));
            forced_pseudo = List.map (fun id -> (id, concrete id)) muxable;
            hold_previous_capture = false;
          };
      muxable = List.length muxable;
      blocked = cp.Scanpower.Controlled_pattern.blocked_gates;
      failed = cp.Scanpower.Controlled_pattern.failed_gates;
      reordered = reorder.Scanpower.Input_reorder.gates_reordered;
    }
  in
  List.iter
    (fun (k, v) -> Trace.set k (float_of_int v))
    [
      ("core.muxable", plan.muxable);
      ("core.blocked_gates", plan.blocked);
      ("core.failed_gates", plan.failed);
      ("core.reordered_gates", plan.reordered);
    ];
  plan

(* Flow.evaluate's calls, with the four scan runs after the layers that
   plan them rather than interleaved. *)
let evaluate ~seed (p : Flow.prepared) =
  let plan = plan ~seed p in
  let cycles = ref 0 in
  let measure run =
    let m =
      span ~layer:"scan" ("scan.measure_s." ^ run.policy_name) (fun () ->
          Sim.measure run.circuit p.Flow.chain run.policy ~vectors:p.Flow.vectors)
    in
    Trace.set ("scan.toggles." ^ run.policy_name) (float_of_int m.Sim.total_toggles);
    cycles := !cycles + m.Sim.cycles;
    technique m
  in
  let traditional = measure plan.traditional in
  let enhanced_scan = measure plan.enhanced in
  let input_control = measure plan.input_control in
  let proposed = measure plan.proposed in
  let c = p.Flow.circuit in
  Trace.set "scan.cycles" (float_of_int !cycles);
  Trace.set "scan.nodes" (float_of_int (Circuit.node_count c));
  {
    Flow.name = Circuit.name c;
    n_vectors = List.length p.Flow.vectors;
    n_dffs = Array.length (Circuit.dffs c);
    n_muxable = plan.muxable;
    blocked_gates = plan.blocked;
    failed_gates = plan.failed;
    reordered_gates = plan.reordered;
    atpg = Flow.atpg_summary_of p.Flow.atpg;
    traditional;
    input_control;
    proposed;
    enhanced_scan;
  }
