open Netlist

(* Two-bit ternary code: bit 0 = "may be 0", bit 1 = "may be 1". AND
   keeps a may-1 only if every fanin may be 1 and a may-0 if any fanin
   may be 0; OR is the mirror; negation swaps the bits. *)
let c0 = 1
let c1 = 2
let cx = 3

let encode = function
  | Logic.Zero -> c0
  | Logic.One -> c1
  | Logic.X -> cx

let decode v = if v = c0 then Logic.Zero else if v = c1 then Logic.One else Logic.X

let neg v = ((v land 1) lsl 1) lor (v lsr 1)

type t = {
  opcode : int array;
  fanin_off : int array;
  fanin : int array;
  fanout_off : int array;
  fanout : int array;
  levels : int array;
  eval_order : int array;
  value : int array;
  (* level buckets: level [l] occupies [bucket_off.(l) ..
     bucket_off.(l) + bucket_len.(l) - 1] of [bucket] *)
  bucket : int array;
  bucket_off : int array;
  bucket_len : int array;
  pending : bool array;
  mutable top_level : int;
  (* undo log: (node, previous code) pairs *)
  mutable trail : int array;
  mutable trail_len : int;
  mutable events : int;
}

let eval t id =
  let lo = t.fanin_off.(id) and hi = t.fanin_off.(id + 1) in
  let op = t.opcode.(id) in
  let fa = t.fanin and v = t.value in
  if op = Compiled.op_output || op = Compiled.op_buf then v.(fa.(lo))
  else if op = Compiled.op_not then neg v.(fa.(lo))
  else if op <= Compiled.op_nor then begin
    (* and/nand/or/nor: one pass collects both bitwise folds *)
    let all = ref cx and any = ref 0 in
    for k = lo to hi - 1 do
      let x = v.(fa.(k)) in
      all := !all land x;
      any := !any lor x
    done;
    if op = Compiled.op_and then (!all land 2) lor (!any land 1)
    else if op = Compiled.op_nand then neg ((!all land 2) lor (!any land 1))
    else if op = Compiled.op_or then (!any land 2) lor (!all land 1)
    else neg ((!any land 2) lor (!all land 1))
  end
  else begin
    let acc = ref c0 in
    for k = lo to hi - 1 do
      let x = v.(fa.(k)) in
      acc := if !acc = cx || x = cx then cx else if !acc = x then c0 else c1
    done;
    if op = Compiled.op_xor then !acc else neg !acc
  end

let create cc =
  let n = Compiled.node_count cc in
  let pop = Compiled.level_population cc in
  let n_levels = Array.length pop in
  let bucket_off = Array.make (n_levels + 1) 0 in
  for l = 0 to n_levels - 1 do
    bucket_off.(l + 1) <- bucket_off.(l) + pop.(l)
  done;
  let t =
    {
      opcode = Compiled.opcode cc;
      fanin_off = Compiled.fanin_off cc;
      fanin = Compiled.fanin cc;
      fanout_off = Compiled.fanout_off cc;
      fanout = Compiled.fanout cc;
      levels = Compiled.levels cc;
      eval_order = Compiled.eval_order cc;
      value = Array.make n cx;
      bucket = Array.make (max 1 bucket_off.(n_levels)) 0;
      bucket_off;
      bucket_len = Array.make n_levels 0;
      pending = Array.make n false;
      top_level = 0;
      trail = Array.make 64 0;
      trail_len = 0;
      events = 0;
    }
  in
  Array.iter (fun id -> t.value.(id) <- eval t id) t.eval_order;
  t.events <- Array.length t.eval_order;
  t

let load t values =
  if Array.length values <> Array.length t.value then
    invalid_arg "Ternary_imply.load: value array length mismatch";
  Array.iteri
    (fun id x -> if t.opcode.(id) <= Compiled.op_dff then t.value.(id) <- encode x)
    values;
  Array.iter (fun id -> t.value.(id) <- eval t id) t.eval_order;
  t.events <- t.events + Array.length t.eval_order;
  t.trail_len <- 0

let value t id = decode t.value.(id)
let is_x t id = t.value.(id) = cx
let to_array t = Array.map decode t.value
let events t = t.events

let record t id =
  if t.trail_len + 2 > Array.length t.trail then begin
    let bigger = Array.make (2 * Array.length t.trail) 0 in
    Array.blit t.trail 0 bigger 0 t.trail_len;
    t.trail <- bigger
  end;
  t.trail.(t.trail_len) <- id;
  t.trail.(t.trail_len + 1) <- t.value.(id);
  t.trail_len <- t.trail_len + 2

let schedule_fanouts t id =
  for k = t.fanout_off.(id) to t.fanout_off.(id + 1) - 1 do
    let s = t.fanout.(k) in
    (* a flip-flop is a source: the combinational core never writes it *)
    if t.opcode.(s) > Compiled.op_dff && not t.pending.(s) then begin
      t.pending.(s) <- true;
      let l = t.levels.(s) in
      t.bucket.(t.bucket_off.(l) + t.bucket_len.(l)) <- s;
      t.bucket_len.(l) <- t.bucket_len.(l) + 1;
      if l > t.top_level then t.top_level <- l
    end
  done

(* Re-evaluate the scheduled nodes level by level. A node's fanins
   sit on strictly lower levels, so each is evaluated once, after all
   of its changed fanins. *)
let drain t =
  let l = ref 1 in
  while !l <= t.top_level do
    let base = t.bucket_off.(!l) in
    for k = 0 to t.bucket_len.(!l) - 1 do
      let id = t.bucket.(base + k) in
      t.pending.(id) <- false;
      t.events <- t.events + 1;
      let v = eval t id in
      if v <> t.value.(id) then begin
        record t id;
        t.value.(id) <- v;
        schedule_fanouts t id
      end
    done;
    t.bucket_len.(!l) <- 0;
    incr l
  done;
  t.top_level <- 0

let assign t id x =
  if t.opcode.(id) > Compiled.op_dff then
    invalid_arg "Ternary_imply.assign: not a source node";
  let v = encode x in
  if v <> t.value.(id) then begin
    record t id;
    t.value.(id) <- v;
    schedule_fanouts t id;
    drain t
  end

let mark t = t.trail_len

let undo_to t m =
  if m < 0 || m > t.trail_len || m land 1 <> 0 then
    invalid_arg "Ternary_imply.undo_to: not a mark of the current trail";
  let k = ref t.trail_len in
  while !k > m do
    k := !k - 2;
    t.value.(t.trail.(!k)) <- t.trail.(!k + 1)
  done;
  t.trail_len <- m

let commit t = t.trail_len <- 0
