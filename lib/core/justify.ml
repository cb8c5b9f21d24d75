open Netlist
module Imply = Sim.Ternary_imply

let m_attempts = Telemetry.Counter.make "core.justify.attempts"
let m_backtracks = Telemetry.Counter.make "core.justify.backtracks"
let m_events = Telemetry.Counter.make "core.justify.events"

type direction =
  | Leakage_directed of Power.Observability.t
  | Structural

type t = {
  opcode : int array;
  fanin_off : int array;
  fanin : int array;
  state : Imply.t;
  controllable : bool array;
  direction : direction;
  backtrack_limit : int;
  (* candidate ordering key: level (structural) or leakage
     observability (directed) *)
  key : float array;
  (* [dead.(id) = epoch]: no X path from [id] reaches an unassigned
     controllable source in the current state *)
  dead : int array;
  mutable epoch : int;
  (* backtrace candidate stack: each gate on the current descent owns
     a segment *)
  scratch : int array;
  mutable sp : int;
}

let create ?(backtrack_limit = 50) c ~controllable ~direction =
  let n = Circuit.node_count c in
  let flags = Array.make n false in
  List.iter
    (fun id ->
      if not (Gate.is_source (Circuit.node c id).Circuit.kind) then
        invalid_arg "Justify.create: controllable node is not a source";
      flags.(id) <- true)
    controllable;
  let cc = Compiled.of_circuit c in
  let key =
    match direction with
    | Structural -> Array.init n (fun id -> float_of_int (Circuit.level c id))
    | Leakage_directed obs ->
      Array.init n (Power.Observability.observability_na obs)
  in
  {
    opcode = Compiled.opcode cc;
    fanin_off = Compiled.fanin_off cc;
    fanin = Compiled.fanin cc;
    state = Imply.create cc;
    controllable = flags;
    direction;
    backtrack_limit;
    key;
    dead = Array.make n 0;
    epoch = 1;
    scratch = Array.make (Array.length (Compiled.fanin cc) + 1) 0;
    sp = 0;
  }

(* Section 4's directive: to set a line to 1 prefer small (most
   negative) leakage observability, to set it to 0 prefer large.
   Structural order is by level whatever the value. *)
let descending t value =
  match (t.direction, value) with
  | Leakage_directed _, Logic.Zero -> true
  | Leakage_directed _, (Logic.One | Logic.X) | Structural, _ -> false

let order_candidates t ~value candidates =
  let cmp =
    if descending t value then fun a b -> Float.compare t.key.(b) t.key.(a)
    else fun a b -> Float.compare t.key.(a) t.key.(b)
  in
  List.stable_sort cmp candidates

(* Stable insertion sort of [scratch.(lo .. hi-1)]: the same order
   [order_candidates] gives, on a handful of fanins, in place. *)
let sort_segment t lo hi ~desc =
  let buf = t.scratch and key = t.key in
  for i = lo + 1 to hi - 1 do
    let x = buf.(i) in
    let kx = key.(x) in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let c = Float.compare key.(buf.(!j)) kx in
      if desc then c < 0 else c > 0
    do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done

let no_hit = -1

(* Backtrace: find a controllable, still-unassigned source that can
   contribute to driving [id] toward [v], descending only through
   X-valued lines; candidate fanins at each gate are tried in the
   direction-given order. A hit is encoded [src * 2 + bit].

   Whether a node leads to a hit does not depend on the value sought
   through it, only on the X lines below it. A node that failed once
   stays failed while the search only adds assignments (X lines can
   only become definite), so [dead] carries over across backtraces
   until the next undo bumps [epoch]. Skipping a failed subtree never
   changes which hit the depth-first order reaches first. *)
let rec walk t id v =
  if t.dead.(id) = t.epoch then no_hit
  else if t.opcode.(id) <= Compiled.op_dff then
    if t.controllable.(id) && Imply.is_x t.state id then
      (id * 2) + if Logic.equal v Logic.One then 1 else 0
    else begin
      t.dead.(id) <- t.epoch;
      no_hit
    end
  else begin
    let op = t.opcode.(id) in
    let v_inner =
      if
        op = Compiled.op_not || op = Compiled.op_nand || op = Compiled.op_nor
        || op = Compiled.op_xnor
      then Logic.lnot v
      else v
    in
    let lo = t.sp in
    for k = t.fanin_off.(id) to t.fanin_off.(id + 1) - 1 do
      let f = t.fanin.(k) in
      if Imply.is_x t.state f then begin
        t.scratch.(t.sp) <- f;
        t.sp <- t.sp + 1
      end
    done;
    let hi = t.sp in
    sort_segment t lo hi ~desc:(descending t v_inner);
    let rec first_ok i =
      if i >= hi then no_hit
      else
        let hit = walk t t.scratch.(i) v_inner in
        if hit <> no_hit then hit else first_ok (i + 1)
    in
    let hit = first_ok lo in
    t.sp <- lo;
    if hit = no_hit then t.dead.(id) <- t.epoch;
    hit
  end

let undo_to t m =
  Imply.undo_to t.state m;
  t.epoch <- t.epoch + 1

let search t node v =
  let stack = ref [] in
  let backtracks = ref 0 in
  let rec unwind () =
    match !stack with
    | [] -> false
    | (src, value, flipped, m) :: rest ->
      if flipped then begin
        undo_to t m;
        stack := rest;
        unwind ()
      end
      else begin
        incr backtracks;
        Telemetry.Counter.inc m_backtracks;
        if !backtracks > t.backtrack_limit then false
        else begin
          undo_to t m;
          let value' = Logic.lnot value in
          Imply.assign t.state src value';
          stack := (src, value', true, m) :: rest;
          true
        end
      end
  in
  let rec go () =
    let cur = Imply.value t.state node in
    if Logic.equal cur v then true
    else if not (Logic.equal cur Logic.X) then unwind () && go ()
    else begin
      let hit = walk t node v in
      if hit = no_hit then unwind () && go ()
      else begin
        let src = hit / 2 in
        let value = if hit land 1 = 1 then Logic.One else Logic.Zero in
        let m = Imply.mark t.state in
        Imply.assign t.state src value;
        stack := (src, value, false, m) :: !stack;
        go ()
      end
    end
  in
  go ()

let attempt t node v =
  Telemetry.Counter.inc m_attempts;
  let events0 = Imply.events t.state in
  let cur = Imply.value t.state node in
  let ok =
    if Logic.equal cur v then true
    else if not (Logic.equal cur Logic.X) then false
    else begin
      let base = Imply.mark t.state in
      let ok = search t node v in
      if not ok then undo_to t base;
      ok
    end
  in
  Imply.commit t.state;
  Telemetry.Counter.add m_events (Imply.events t.state - events0);
  ok

let load t values =
  Imply.load t.state values;
  t.epoch <- t.epoch + 1

let values t = Imply.to_array t.state

let justify t ~values node v =
  load t values;
  if attempt t node v then Some (Imply.to_array t.state) else None
