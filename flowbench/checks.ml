(* Output checks, run outside the timed region. Each returns [Error]
   with a one-line reason; the workloads count every op whose output
   failed a check in [failed]. [corrupt] names a check whose input is
   deliberately damaged first, which the self-test uses to show that a
   wrong result is caught and counted. *)

module Flow = Scanpower.Flow
module Sim = Scan.Scan_sim

let corrupt : string option ref = ref None

(* Damage the first result a check sees, once. *)
let tamper name f x =
  if !corrupt = Some name then begin
    corrupt := None;
    f x
  end
  else x

(* The Cone reference fault simulator, run on the produced vectors,
   must detect at least the faults ATPG credits as detected. It may
   detect a few more: ATPG never re-checks a fault it gave up on
   (aborted), and later vectors sometimes catch one by chance. So the
   Cone count lies between [detected] and [detected + aborted +
   skipped]. *)
let atpg (p : Flow.prepared) =
  let o = tamper "atpg"
      (fun o -> { o with Atpg.Pattern_gen.detected = o.Atpg.Pattern_gen.total_faults })
      p.Flow.atpg
  in
  let c = p.Flow.circuit in
  let faults = Atpg.Fault.collapsed_faults c in
  let machine = Atpg.Fault_simulation.make ~engine:Atpg.Fault_simulation.Cone c in
  let detected, _ =
    Atpg.Fault_simulation.split ~machine c ~faults ~vectors:p.Flow.vectors
  in
  let cone = List.length detected in
  let open Atpg.Pattern_gen in
  if List.length faults <> o.total_faults then
    Error (Printf.sprintf "%d collapsed faults, ATPG reports %d" (List.length faults) o.total_faults)
  else if cone < o.detected || cone > o.detected + o.aborted + o.skipped then
    Error
      (Printf.sprintf "Cone detects %d faults, ATPG reports %d detected (+%d aborted, %d skipped)"
         cone o.detected o.aborted o.skipped)
  else Ok ()

(* The Scalar reference and the Packed engine must agree exactly on
   per-node toggles, per-cycle toggles and dynamic power, for every
   policy of an evaluation, on a seeded subset of its vectors. *)
let scan ~subset chain (runs : Layers.scan_run list) =
  List.fold_left
    (fun acc (run : Layers.scan_run) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        let m engine =
          Sim.measure ~engine run.Layers.circuit chain run.Layers.policy ~vectors:subset
        in
        let packed =
          tamper "scan"
            (fun r -> { r with Sim.total_toggles = r.Sim.total_toggles + 1 })
            (m Sim.Packed)
        in
        let scalar = m Sim.Scalar in
        if
          packed.Sim.total_toggles = scalar.Sim.total_toggles
          && packed.Sim.toggles = scalar.Sim.toggles
          && packed.Sim.per_cycle_toggles = scalar.Sim.per_cycle_toggles
          && packed.Sim.dynamic.Power.Switching.dynamic_per_hz_uw
             = scalar.Sim.dynamic.Power.Switching.dynamic_per_hz_uw
        then Ok ()
        else
          Error
            (Printf.sprintf "%s: packed %d toggles, scalar %d" run.Layers.policy_name
               packed.Sim.total_toggles scalar.Sim.total_toggles))
    (Ok ()) runs

(* A recomposed or parallel result must equal the reference exactly. *)
let same_comparison ~what (reference : Flow.comparison) (got : Flow.comparison) =
  let got =
    tamper what (fun c -> { c with Flow.n_vectors = c.Flow.n_vectors + 1 }) got
  in
  if got = reference then Ok ()
  else Error (Printf.sprintf "%s: %s differs from the reference" what got.Flow.name)

(* EXPERIMENTS.md Table I (evaluate seed 42, the flow's default ATPG
   configuration): dyn% and stat% of the proposed structure versus
   traditional scan, to two decimals. *)
let table1_at_42 =
  [
    ("s344", 76.86, 16.09); ("s382", 78.18, 17.49); ("s444", 82.47, 15.10);
    ("s510", 14.30, 16.83); ("s641", 68.67, 13.57); ("s713", 74.92, 17.21);
    ("s1196", 82.57, 18.52); ("s1238", 76.86, 15.09); ("s1423", 94.94, 15.59);
    ("s1494", 36.85, 16.10);
  ]

(* A Table I point (circuit, dyn%, stat%) must print as the paper-table
   row does, to two decimals. *)
let table1_row (name, dyn, stat) =
  let dyn = tamper "table1" (fun d -> d +. 1.0) dyn in
  let two = Printf.sprintf "%.2f" in
  match List.find_opt (fun (n, _, _) -> n = name) table1_at_42 with
  | None -> Error (Printf.sprintf "table1: %s is not a Table I circuit" name)
  | Some (_, d, s) when two d = two dyn && two s = two stat -> Ok ()
  | Some (_, d, s) ->
    Error
      (Printf.sprintf "table1: %s dyn%% %.2f stat%% %.2f, EXPERIMENTS.md has %.2f %.2f" name dyn
         stat d s)
