open Netlist

let m_trials = Telemetry.Counter.make "core.ivc.trials"
let m_samples = Telemetry.Counter.make "core.ivc.leakage_samples"
let m_lanes = Telemetry.Counter.make "core.ivc.lanes"

type outcome = {
  values : Logic.t array;
  candidates_tried : int;
  expected_leakage_uw : float;
}

(* Where a source's value comes from in one (candidate, sample) lane. *)
type source_value =
  | Fixed of int64  (** definite in [values]: all lanes equal *)
  | Candidate of int  (** free controlled input: candidate draw [j] *)
  | Sample of int  (** still X: inner-sample draw [j] *)

(* Expected scan-mode leakage of each candidate completion: lines
   still X toggle with the chain, so they are sampled; the same
   pre-drawn sample set scores every candidate. The (candidate,
   sample) pairs run as the 64 lanes of packed words through the
   compiled evaluator, and each lane's leakage is summed gate by gate
   in node-id order, so every score is the one-sample-at-a-time
   result to the bit. *)
let expected_leakage c ~values ~free_controlled ~draws ~sample_seeds =
  let n_cands = Array.length draws and n_samples = Array.length sample_seeds in
  let slot = Hashtbl.create 16 in
  Array.iteri (fun j id -> Hashtbl.replace slot id j) free_controlled;
  let n_free = ref 0 in
  let sources =
    Array.map
      (fun id ->
        match values.(id) with
        | Logic.One -> (id, Fixed Int64.minus_one)
        | Logic.Zero -> (id, Fixed 0L)
        | Logic.X ->
          (match Hashtbl.find_opt slot id with
          | Some j -> (id, Candidate j)
          | None ->
            incr n_free;
            (id, Sample (!n_free - 1))))
      (Circuit.sources c)
  in
  let sample_bits =
    Array.map
      (fun s ->
        let rng = Util.Rng.create s in
        Array.init !n_free (fun _ -> Util.Rng.bool rng))
      sample_seeds
  in
  let model = Power.Leakage.model c in
  let cc = Power.Leakage.model_compiled model in
  let words = Array.make (Compiled.node_count cc) 0L in
  let n_lanes = n_cands * n_samples in
  let scores = Array.make n_lanes 0.0 in
  let out = Array.make 64 0.0 in
  let lane_word lane0 lanes bit_of =
    let w = ref 0L in
    for l = 0 to lanes - 1 do
      let lane = lane0 + l in
      if bit_of (lane / n_samples) (lane mod n_samples) then
        w := Int64.logor !w (Int64.shift_left 1L l)
    done;
    !w
  in
  let lane0 = ref 0 in
  while !lane0 < n_lanes do
    let lanes = min 64 (n_lanes - !lane0) in
    Array.iter
      (fun (id, src) ->
        words.(id) <-
          (match src with
          | Fixed w -> w
          | Candidate j -> lane_word !lane0 lanes (fun cand _ -> draws.(cand).(j))
          | Sample j -> lane_word !lane0 lanes (fun _ s -> sample_bits.(s).(j))))
      sources;
    Compiled.eval_words cc words;
    Power.Leakage.lane_leakage_uw model words ~lanes out;
    Array.blit out 0 scores !lane0 lanes;
    lane0 := !lane0 + lanes
  done;
  Telemetry.Counter.add m_samples n_lanes;
  Telemetry.Counter.add m_lanes n_lanes;
  Array.init n_cands (fun cand ->
      let total = ref 0.0 in
      for s = 0 to n_samples - 1 do
        total := !total +. scores.((cand * n_samples) + s)
      done;
      !total /. float_of_int n_samples)

let fill ?(candidates = 32) ?(inner_samples = 16) ~seed c ~values ~controlled =
  let rng = Util.Rng.create seed in
  let free_controlled =
    Array.of_list (List.filter (fun id -> Logic.equal values.(id) Logic.X) controlled)
  in
  let sample_seeds = Array.init (max 1 inner_samples) (fun i -> (seed * 7919) + i) in
  let n_cands = if Array.length free_controlled = 0 then 1 else max 1 candidates in
  (* every candidate's draws, in the order the trials consume them *)
  let draws = Array.make_matrix n_cands (Array.length free_controlled) false in
  for cand = 0 to n_cands - 1 do
    for j = 0 to Array.length free_controlled - 1 do
      draws.(cand).(j) <- Util.Rng.bool rng
    done
  done;
  Telemetry.Counter.add m_trials n_cands;
  let costs = expected_leakage c ~values ~free_controlled ~draws ~sample_seeds in
  (* the first minimum wins *)
  let best = ref 0 in
  Array.iteri
    (fun cand cost -> if not (costs.(!best) <= cost) then best := cand)
    costs;
  let winner = Array.copy values in
  Array.iteri
    (fun j id -> winner.(id) <- Logic.of_bool draws.(!best).(j))
    free_controlled;
  Sim.Ternary_sim.propagate c winner;
  {
    values = winner;
    candidates_tried = n_cands;
    expected_leakage_uw = costs.(!best);
  }
