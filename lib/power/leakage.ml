open Netlist

let cell_of c id = Techmap.Mapper.cell_of_node c id

let gate_state c values id =
  let nd = Circuit.node c id in
  let s = ref 0 in
  Array.iteri (fun i f -> if values.(f) then s := !s lor (1 lsl i)) nd.fanins;
  !s

let gate_leakage_na c values id =
  match cell_of c id with
  | None -> 0.0
  | Some cell ->
    Techlib.Leakage_table.leakage_na cell ~state:(gate_state c values id)

let total_leakage_uw c values =
  if Array.length values <> Circuit.node_count c then
    invalid_arg "Leakage.total_leakage_uw: value array length mismatch";
  let na = ref 0.0 in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        na := !na +. gate_leakage_na c values nd.Circuit.id)
    (Circuit.nodes c);
  (* nA x V = nW; convert to uW *)
  !na *. Techlib.Leakage_table.vdd /. 1000.0

let average_leakage_uw c snapshots =
  match snapshots with
  | [] -> invalid_arg "Leakage.average_leakage_uw: no snapshots"
  | _ ->
    let sum = List.fold_left (fun acc v -> acc +. total_leakage_uw c v) 0.0 in
    sum snapshots /. float_of_int (List.length snapshots)

(* Probability of a packed fanin state under independent per-node
   one-probabilities. *)
let state_probability nd p_one state =
  let p = ref 1.0 in
  Array.iteri
    (fun i f ->
      let p1 = p_one.(f) in
      p := !p *. (if state land (1 lsl i) <> 0 then p1 else 1.0 -. p1))
    nd.Circuit.fanins;
  !p

let expected_gate_leakage_na c ~p_one id =
  match cell_of c id with
  | None -> 0.0
  | Some cell ->
    let nd = Circuit.node c id in
    let n = Techlib.Leakage_table.n_states cell in
    let e = ref 0.0 in
    for state = 0 to n - 1 do
      e :=
        !e
        +. state_probability nd p_one state
           *. Techlib.Leakage_table.leakage_na cell ~state
    done;
    !e

let expected_total_leakage_uw c ~p_one =
  let na = ref 0.0 in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        na := !na +. expected_gate_leakage_na c ~p_one nd.Circuit.id)
    (Circuit.nodes c);
  !na *. Techlib.Leakage_table.vdd /. 1000.0

(* ---- Per-circuit model for many-state scoring ---- *)

type model = {
  compiled : Compiled.t;
  gates : int array;  (** logic gate ids, ascending *)
  table_off : int array;  (** gate [k]'s states start at [table.(table_off.(k))] *)
  table : float array;  (** state -> nA, one row per gate *)
}

let model c =
  let gates =
    Array.of_list
      (List.filter_map
         (fun nd -> if Gate.is_logic nd.Circuit.kind then Some nd.Circuit.id else None)
         (Array.to_list (Circuit.nodes c)))
  in
  let cells =
    Array.map
      (fun id ->
        match cell_of c id with
        | Some cell -> cell
        | None -> assert false (* cell_of only refuses non-logic nodes *))
      gates
  in
  let table_off = Array.make (Array.length gates + 1) 0 in
  Array.iteri
    (fun k cell ->
      table_off.(k + 1) <- table_off.(k) + Techlib.Leakage_table.n_states cell)
    cells;
  let table = Array.make table_off.(Array.length gates) 0.0 in
  Array.iteri
    (fun k cell ->
      for state = 0 to Techlib.Leakage_table.n_states cell - 1 do
        table.(table_off.(k) + state) <- Techlib.Leakage_table.leakage_na cell ~state
      done)
    cells;
  { compiled = Compiled.of_circuit c; gates; table_off; table }

let model_compiled m = m.compiled

let bit (w : int64) l = Int64.to_int (Int64.shift_right_logical w l) land 1

let lane_leakage_uw m (words : int64 array) ~lanes out =
  if lanes < 0 || lanes > 64 || Array.length out < lanes then
    invalid_arg "Leakage.lane_leakage_uw: bad lane count";
  let fanin_off = Compiled.fanin_off m.compiled and fanin = Compiled.fanin m.compiled in
  Array.fill out 0 lanes 0.0;
  for k = 0 to Array.length m.gates - 1 do
    let id = m.gates.(k) in
    let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
    let row = m.table_off.(k) in
    (* one add per lane and gate, gates in id order: each lane's sum
       is the scalar sum, term for term *)
    if hi - lo = 2 then begin
      let a = words.(fanin.(lo)) and b = words.(fanin.(lo + 1)) in
      for l = 0 to lanes - 1 do
        out.(l) <- out.(l) +. m.table.(row + bit a l + (bit b l lsl 1))
      done
    end
    else
      for l = 0 to lanes - 1 do
        let s = ref 0 in
        for i = 0 to hi - lo - 1 do
          s := !s lor (bit words.(fanin.(lo + i)) l lsl i)
        done;
        out.(l) <- out.(l) +. m.table.(row + !s)
      done
  done;
  for l = 0 to lanes - 1 do
    out.(l) <- out.(l) *. Techlib.Leakage_table.vdd /. 1000.0
  done
