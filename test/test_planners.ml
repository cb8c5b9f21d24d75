(* The compiled planners against their pre-compiled oracles
   (test/planner_oracle.ml): FindControlledInputPattern, the
   C-algorithm baseline and IVC must agree bit for bit, and the
   incremental implication under them must always equal a full
   ternary sweep. *)

open Netlist
module O = Planner_oracle

let mapped = Hashtbl.create 4

let circuit name =
  match Hashtbl.find_opt mapped name with
  | Some c -> c
  | None ->
    let c = Techmap.Mapper.map (Circuits.by_name name) in
    Hashtbl.replace mapped name c;
    c

let logic_array = Alcotest.(array (testable Logic.pp Logic.equal))
let bits = Alcotest.testable (fun ppf b -> Format.fprintf ppf "%Lx" b) Int64.equal

let muxable c = (Scanpower.Mux_insertion.select c).Scanpower.Mux_insertion.muxable

let check_controlled_pattern name () =
  let c = circuit name in
  let obs = Power.Observability.compute c in
  List.iter
    (fun (label, dir, muxable) ->
      let got = Scanpower.Controlled_pattern.find ~direction:dir c ~muxable in
      let want = O.Controlled_pattern.find ~direction:dir c ~muxable in
      let what s = Printf.sprintf "%s %s %s" name label s in
      Alcotest.check logic_array (what "values") want.O.Controlled_pattern.values
        got.Scanpower.Controlled_pattern.values;
      Alcotest.(check int) (what "blocked") want.O.Controlled_pattern.blocked_gates
        got.Scanpower.Controlled_pattern.blocked_gates;
      Alcotest.(check int) (what "failed") want.O.Controlled_pattern.failed_gates
        got.Scanpower.Controlled_pattern.failed_gates;
      Alcotest.(check int) (what "residual")
        want.O.Controlled_pattern.residual_transition_nodes
        got.Scanpower.Controlled_pattern.residual_transition_nodes)
    [
      ("directed", Scanpower.Justify.Leakage_directed obs, muxable c);
      ("structural", Scanpower.Justify.Structural, muxable c);
      ("directed, no mux", Scanpower.Justify.Leakage_directed obs, []);
    ]

let check_c_algorithm name () =
  let c = circuit name in
  let got = Scanpower.C_algorithm.find ~seed:3 c in
  let want = O.C_algorithm.find ~seed:3 c in
  Alcotest.(check (array bool)) "pi pattern" want.O.C_algorithm.pi_pattern
    got.Scanpower.C_algorithm.pi_pattern;
  Alcotest.(check int) "blocked" want.O.C_algorithm.blocked_gates
    got.Scanpower.C_algorithm.blocked_gates;
  Alcotest.(check int) "failed" want.O.C_algorithm.failed_gates
    got.Scanpower.C_algorithm.failed_gates;
  Alcotest.(check int) "residual" want.O.C_algorithm.residual_transition_nodes
    got.Scanpower.C_algorithm.residual_transition_nodes

let check_ivc name () =
  let c = circuit name in
  let cp =
    Scanpower.Controlled_pattern.find
      ~direction:(Scanpower.Justify.Leakage_directed (Power.Observability.compute c))
      c ~muxable:(muxable c)
  in
  let values = cp.Scanpower.Controlled_pattern.values
  and controlled = cp.Scanpower.Controlled_pattern.controlled in
  (* the flow's defaults, then lane counts that straddle word edges *)
  List.iter
    (fun (candidates, inner_samples, seed) ->
      let got =
        Scanpower.Ivc.fill ~candidates ~inner_samples ~seed c ~values ~controlled
      in
      let want = O.Ivc.fill ~candidates ~inner_samples ~seed c ~values ~controlled in
      let what s = Printf.sprintf "%s c%d s%d %s" name candidates inner_samples s in
      Alcotest.check logic_array (what "values") want.O.Ivc.values
        got.Scanpower.Ivc.values;
      Alcotest.(check int) (what "tried") want.O.Ivc.candidates_tried
        got.Scanpower.Ivc.candidates_tried;
      Alcotest.check bits (what "expected leakage")
        (Int64.bits_of_float want.O.Ivc.expected_leakage_uw)
        (Int64.bits_of_float got.Scanpower.Ivc.expected_leakage_uw))
    [ (32, 16, 2007); (5, 70, 11); (3, 1, 4) ]

(* X-heavy start: nothing controlled yet, so every source is sampled
   or drawn. *)
let check_ivc_from_scratch () =
  let c = circuit "s344" in
  let values = Sim.Ternary_sim.make_values c Logic.X in
  Sim.Ternary_sim.propagate c values;
  let controlled = Array.to_list (Circuit.inputs c) in
  let got = Scanpower.Ivc.fill ~seed:9 c ~values ~controlled in
  let want = O.Ivc.fill ~seed:9 c ~values ~controlled in
  Alcotest.check logic_array "values" want.O.Ivc.values got.Scanpower.Ivc.values;
  Alcotest.check bits "expected leakage"
    (Int64.bits_of_float want.O.Ivc.expected_leakage_uw)
    (Int64.bits_of_float got.Scanpower.Ivc.expected_leakage_uw)

let check_lane_leakage () =
  let c = circuit "s344" in
  let m = Power.Leakage.model c in
  let cc = Power.Leakage.model_compiled m in
  let rng = Util.Rng.create 5 in
  let words = Array.init (Circuit.node_count c) (fun _ -> Util.Rng.next_int64 rng) in
  Compiled.eval_words cc words;
  let out = Array.make 64 0.0 in
  Power.Leakage.lane_leakage_uw m words ~lanes:64 out;
  for l = 0 to 63 do
    let v =
      Array.map
        (fun w -> Int64.logand (Int64.shift_right_logical w l) 1L = 1L)
        words
    in
    Alcotest.check bits (Printf.sprintf "lane %d" l)
      (Int64.bits_of_float (Power.Leakage.total_leakage_uw c v))
      (Int64.bits_of_float out.(l))
  done

(* ---------- incremental implication ---------- *)

(* Random netlists over every gate kind, with flip-flops feeding back. *)
let random_circuit seed =
  let rng = Util.Rng.create seed in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "imply%d" seed) () in
  let n_pi = 2 + Util.Rng.int rng 4 and n_ff = Util.Rng.int rng 4 in
  let pool = ref [] in
  for i = 0 to n_pi - 1 do
    pool := Circuit.Builder.add_input b (Printf.sprintf "i%d" i) :: !pool
  done;
  let ffs = List.init n_ff (fun i -> Circuit.Builder.declare_dff b (Printf.sprintf "q%d" i)) in
  pool := ffs @ !pool;
  let pick () =
    let a = Array.of_list !pool in
    a.(Util.Rng.int rng (Array.length a))
  in
  let kinds =
    [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf |]
  in
  let n_gates = 5 + Util.Rng.int rng 40 in
  for g = 0 to n_gates - 1 do
    let kind = kinds.(Util.Rng.int rng (Array.length kinds)) in
    let arity =
      match kind with
      | Gate.Not | Gate.Buf -> 1
      | _ -> 2 + Util.Rng.int rng 3
    in
    let fanins = List.init arity (fun _ -> pick ()) in
    pool := Circuit.Builder.add_gate b kind (Printf.sprintf "g%d" g) fanins :: !pool
  done;
  List.iter (fun q -> Circuit.Builder.connect_dff b q ~d:(pick ())) ffs;
  ignore (Circuit.Builder.add_output b "po" (pick ()));
  Circuit.Builder.build b

let prop_imply_equals_sweep =
  QCheck.Test.make ~name:"incremental implication equals a full sweep" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 60)))
    (fun (seed, steps) ->
      let c = random_circuit seed in
      let st = Sim.Ternary_imply.create (Compiled.of_circuit c) in
      let rng = Util.Rng.create (seed + 1) in
      let sources = Circuit.sources c in
      let marks = ref [] in
      let ok = ref true in
      let agrees () =
        let full = Sim.Ternary_sim.make_values c Logic.X in
        Array.iter (fun id -> full.(id) <- Sim.Ternary_imply.value st id) sources;
        Sim.Ternary_sim.propagate c full;
        Array.for_all2 Logic.equal full (Sim.Ternary_imply.to_array st)
      in
      for _ = 1 to steps do
        (match Util.Rng.int rng 4 with
        | 0 when !marks <> [] ->
          (* undo to a random earlier mark: the state at that mark
             comes back exactly *)
          let k = Util.Rng.int rng (List.length !marks) in
          let m, snapshot = List.nth !marks k in
          Sim.Ternary_imply.undo_to st m;
          if not (Array.for_all2 Logic.equal snapshot (Sim.Ternary_imply.to_array st))
          then ok := false;
          marks := List.filteri (fun i _ -> i >= k) !marks
        | _ ->
          marks := (Sim.Ternary_imply.mark st, Sim.Ternary_imply.to_array st) :: !marks;
          let id = sources.(Util.Rng.int rng (Array.length sources)) in
          let v =
            match Util.Rng.int rng 3 with
            | 0 -> Logic.Zero
            | 1 -> Logic.One
            | _ -> Logic.X
          in
          Sim.Ternary_imply.assign st id v);
        if not (agrees ()) then ok := false
      done;
      !ok)

let check_undo_restores_exactly () =
  let c = circuit "s344" in
  let st = Sim.Ternary_imply.create (Compiled.of_circuit c) in
  let before = Sim.Ternary_imply.to_array st in
  let m = Sim.Ternary_imply.mark st in
  Array.iter
    (fun id -> Sim.Ternary_imply.assign st id Logic.One)
    (Circuit.inputs c);
  Alcotest.(check bool) "assignments changed the state" false
    (Array.for_all2 Logic.equal before (Sim.Ternary_imply.to_array st));
  Sim.Ternary_imply.undo_to st m;
  Alcotest.check logic_array "restored" before (Sim.Ternary_imply.to_array st);
  Alcotest.check_raises "assign refuses a gate"
    (Invalid_argument "Ternary_imply.assign: not a source node") (fun () ->
      let g = (Compiled.eval_order (Compiled.of_circuit c)).(0) in
      Sim.Ternary_imply.assign st g Logic.One)

(* The planners' work counters reach the user: [scanpower profile]
   lists each with a nonzero count. *)
let check_profile_prints_counters () =
  let cli = Test_errors.cli_exe in
  let ic = Unix.open_process_args_in cli [| cli; "profile"; "s1423" |] in
  let out = In_channel.input_all ic in
  Alcotest.(check bool) "profile exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  let lines = String.split_on_char '\n' out in
  List.iter
    (fun name ->
      let count =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
            | [ n; v ] when n = name -> int_of_string_opt v
            | _ -> None)
          lines
      in
      match count with
      | Some v -> Alcotest.(check bool) (name ^ " is nonzero") true (v > 0)
      | None -> Alcotest.failf "profile s1423 does not print %s" name)
    [ "core.justify.events"; "core.ivc.lanes" ]

let golden_cases =
  List.concat_map
    (fun name ->
      [
        Alcotest.test_case (Printf.sprintf "controlled pattern = oracle on %s" name)
          `Quick (check_controlled_pattern name);
        Alcotest.test_case (Printf.sprintf "c-algorithm = oracle on %s" name) `Quick
          (check_c_algorithm name);
        Alcotest.test_case (Printf.sprintf "ivc = oracle on %s" name) `Quick
          (check_ivc name);
      ])
    [ "s344"; "s1196"; "s1423" ]

let suite =
  golden_cases
  @ [
      Alcotest.test_case "ivc from an all-X start = oracle" `Quick
        check_ivc_from_scratch;
      Alcotest.test_case "lane leakage = scalar leakage per lane" `Quick
        check_lane_leakage;
      Alcotest.test_case "undo restores the state exactly" `Quick
        check_undo_restores_exactly;
      QCheck_alcotest.to_alcotest prop_imply_equals_sweep;
      Alcotest.test_case "profile prints the planner counters" `Quick
        check_profile_prints_counters;
    ]
