(* The evaluate path's planners as they were before they moved onto the
   compiled kernels: Justify with a copied array, a full ternary sweep
   per decision and a hashed backtrace; Controlled_pattern and
   C_algorithm on top of it; IVC scoring one sample at a time through
   [Power.Leakage.total_leakage_uw]. Kept only as golden oracles: the
   library versions must return bit-identical results. *)

open Netlist

module Justify = struct
  type direction = Scanpower.Justify.direction =
    | Leakage_directed of Power.Observability.t
    | Structural

  type t = {
    circuit : Circuit.t;
    controllable : bool array;
    direction : direction;
    backtrack_limit : int;
  }

  let create ?(backtrack_limit = 50) c ~controllable ~direction =
    let flags = Array.make (Circuit.node_count c) false in
    List.iter
      (fun id ->
        if not (Gate.is_source (Circuit.node c id).Circuit.kind) then
          invalid_arg "Justify.create: controllable node is not a source";
        flags.(id) <- true)
      controllable;
    { circuit = c; controllable = flags; direction; backtrack_limit }

  (* Section 4's directive: to set a line to 1 prefer small (most
     negative) leakage observability, to set it to 0 prefer large. *)
  let order_candidates t ~value candidates =
    match t.direction with
    | Structural ->
      List.sort
        (fun a b ->
          compare (Circuit.level t.circuit a) (Circuit.level t.circuit b))
        candidates
    | Leakage_directed obs ->
      let key id = Power.Observability.observability_na obs id in
      let cmp a b =
        match value with
        | Logic.One | Logic.X -> compare (key a) (key b)
        | Logic.Zero -> compare (key b) (key a)
      in
      List.sort cmp candidates

  (* Backtrace: find a controllable, still-unassigned source that can
     contribute to driving [node] toward [v], descending only through
     X-valued lines; candidate fanins at each gate are tried in the
     direction-given order. *)
  let backtrace t work node v =
    let c = t.circuit in
    let visited = Hashtbl.create 32 in
    let rec walk id v =
      if Hashtbl.mem visited (id, v) then None
      else begin
        Hashtbl.replace visited (id, v) ();
        let nd = Circuit.node c id in
        if Gate.is_source nd.kind then
          if t.controllable.(id) && Logic.equal work.(id) Logic.X then
            Some (id, v)
          else None
        else begin
          let v_inner = if Gate.inversion nd.kind then Logic.lnot v else v in
          let xs =
            Array.to_list nd.fanins
            |> List.filter (fun f -> Logic.equal work.(f) Logic.X)
          in
          let ordered = order_candidates t ~value:v_inner xs in
          let rec first_ok = function
            | [] -> None
            | f :: rest ->
              (match walk f v_inner with
              | Some hit -> Some hit
              | None -> first_ok rest)
          in
          first_ok ordered
        end
      end
    in
    walk node v

  let justify t ~values node v =
    let c = t.circuit in
    let work = Array.copy values in
    Sim.Ternary_sim.propagate c work;
    if Logic.equal work.(node) v then Some work
    else if not (Logic.equal work.(node) Logic.X) then None
    else begin
      let stack = ref [] in
      let backtracks = ref 0 in
      let rec unwind () =
        match !stack with
        | [] -> false
        | (src, value, flipped) :: rest ->
          if flipped then begin
            work.(src) <- Logic.X;
            stack := rest;
            unwind ()
          end
          else begin
            incr backtracks;
            if !backtracks > t.backtrack_limit then false
            else begin
              let value' = Logic.lnot value in
              work.(src) <- value';
              stack := (src, value', true) :: rest;
              Sim.Ternary_sim.propagate c work;
              true
            end
          end
      in
      let rec search () =
        if Logic.equal work.(node) v then Some work
        else if not (Logic.equal work.(node) Logic.X) then
          if unwind () then search () else None
        else
          match backtrace t work node v with
          | None -> if unwind () then search () else None
          | Some (src, value) ->
            work.(src) <- value;
            stack := (src, value, false) :: !stack;
            Sim.Ternary_sim.propagate c work;
            search ()
      in
      search ()
    end
end

module Controlled_pattern = struct
  type outcome = {
    values : Logic.t array;
    controlled : int list;
    assignment : (int * Logic.t) list;
    blocked_gates : int;
    failed_gates : int;
    residual_transition_nodes : int;
  }

  let find ?(backtrack_limit = 50) ~direction c ~muxable =
    let controlled = Array.to_list (Circuit.inputs c) @ muxable in
    let muxed = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace muxed id ()) muxable;
    let seeds =
      Array.to_list (Circuit.dffs c)
      |> List.filter (fun id -> not (Hashtbl.mem muxed id))
    in
    let engine =
      Justify.create ~backtrack_limit c ~controllable:controlled ~direction
    in
    let values = Sim.Ternary_sim.make_values c Logic.X in
    Sim.Ternary_sim.propagate c values;
    let failed = Array.make (Circuit.node_count c) false in
    let blocked_gates = ref 0 and failed_gates = ref 0 in
    let values = ref values in
    let continue_ = ref true in
    while !continue_ do
      let state = Scanpower.Tns.compute c ~values:!values ~seeds ~failed in
      match Scanpower.Tns.pick_largest_load c state.Scanpower.Tns.tgs with
      | None -> continue_ := false
      | Some mc_tg ->
        let nd = Circuit.node c mc_tg in
        let cv =
          match Gate.controlling_value nd.kind with
          | Some v -> v
          | None -> assert false (* TGS only holds AND/NAND/OR/NOR gates *)
        in
        (* don't-care inputs other than the transition nodes themselves *)
        let candidates =
          Array.to_list nd.fanins
          |> List.filter (fun f ->
                 (not state.Scanpower.Tns.tns.(f)) && Logic.equal !values.(f) Logic.X)
          |> Justify.order_candidates engine ~value:cv
        in
        let rec try_inputs = function
          | [] -> false
          | input :: rest ->
            (match Justify.justify engine ~values:!values input cv with
            | Some assigned ->
              values := assigned;
              true
            | None -> try_inputs rest)
        in
        if try_inputs candidates then incr blocked_gates
        else begin
          incr failed_gates;
          failed.(mc_tg) <- true
        end
    done;
    let final = Scanpower.Tns.compute c ~values:!values ~seeds ~failed in
    {
      values = !values;
      controlled;
      assignment = List.map (fun id -> (id, !values.(id))) controlled;
      blocked_gates = !blocked_gates;
      failed_gates = !failed_gates;
      residual_transition_nodes = Scanpower.Tns.transition_count final;
    }
end

module C_algorithm = struct
  type outcome = {
    pi_pattern : bool array;
    blocked_gates : int;
    failed_gates : int;
    residual_transition_nodes : int;
  }

  let find ?backtrack_limit ?(seed = 8) c =
    let res =
      Controlled_pattern.find ?backtrack_limit ~direction:Justify.Structural c
        ~muxable:[]
    in
    let rng = Util.Rng.create seed in
    let pis = Circuit.inputs c in
    let pi_pattern =
      Array.map
        (fun id ->
          match res.Controlled_pattern.values.(id) with
          | Logic.Zero -> false
          | Logic.One -> true
          | Logic.X -> Util.Rng.bool rng)
        pis
    in
    {
      pi_pattern;
      blocked_gates = res.Controlled_pattern.blocked_gates;
      failed_gates = res.Controlled_pattern.failed_gates;
      residual_transition_nodes = res.Controlled_pattern.residual_transition_nodes;
    }
end

module Ivc = struct
  type outcome = {
    values : Logic.t array;
    candidates_tried : int;
    expected_leakage_uw : float;
  }

  (* Expected scan-mode leakage of a fully propagated ternary assignment:
     lines still X toggle with the chain, so they are sampled; the same
     pre-drawn sample set scores every candidate. *)
  let expected_leakage c values samples =
    let free =
      Array.to_list (Circuit.sources c)
      |> List.filter (fun id -> Logic.equal values.(id) Logic.X)
    in
    let n = Circuit.node_count c in
    let bools = Array.make n false in
    let score sample_rng =
      for id = 0 to n - 1 do
        bools.(id) <-
          (match values.(id) with
          | Logic.One -> true
          | Logic.Zero | Logic.X -> false)
      done;
      List.iter (fun id -> bools.(id) <- Util.Rng.bool sample_rng) free;
      Array.iter
        (fun id ->
          let nd = Circuit.node c id in
          if not (Gate.is_source nd.kind) then
            bools.(id) <-
              Gate.eval_bool nd.kind (Array.map (fun f -> bools.(f)) nd.fanins))
        (Circuit.topo_order c);
      Power.Leakage.total_leakage_uw c bools
    in
    let total = ref 0.0 in
    List.iter (fun seed -> total := !total +. score (Util.Rng.create seed)) samples;
    !total /. float_of_int (List.length samples)

  let fill ?(candidates = 32) ?(inner_samples = 16) ~seed c ~values ~controlled =
    let rng = Util.Rng.create seed in
    let free_controlled =
      List.filter (fun id -> Logic.equal values.(id) Logic.X) controlled
    in
    let inner_seeds = List.init (max 1 inner_samples) (fun i -> (seed * 7919) + i) in
    let n_cands = if free_controlled = [] then 1 else max 1 candidates in
    let best = ref None in
    for _ = 1 to n_cands do
      let trial = Array.copy values in
      List.iter
        (fun id -> trial.(id) <- Logic.of_bool (Util.Rng.bool rng))
        free_controlled;
      Sim.Ternary_sim.propagate c trial;
      let cost = expected_leakage c trial inner_seeds in
      match !best with
      | Some (_, best_cost) when best_cost <= cost -> ()
      | Some _ | None -> best := Some (trial, cost)
    done;
    match !best with
    | None -> assert false
    | Some (winner, cost) ->
      {
        values = winner;
        candidates_tried = n_cands;
        expected_leakage_uw = cost;
      }
end
