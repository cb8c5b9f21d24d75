(** Static power of a mapped circuit (Eq. (5)): the sum over gates of
    the table leakage for the gate's current input state, times Vdd.

    The per-gate input state is the tuple of fanin logic values; pin
    order matters (see {!Techlib.Leakage_table}), which is what the
    paper's gate input reordering step optimises. *)

open Netlist

val gate_state : Circuit.t -> bool array -> int -> int
(** Packed input state of gate [id] under node values [values]. *)

val gate_leakage_na : Circuit.t -> bool array -> int -> float
(** Leakage of one gate (nA); 0 for non-logic nodes. *)

val total_leakage_uw : Circuit.t -> bool array -> float
(** Static power of the whole combinational part, uW.
    @raise Invalid_argument if the circuit is not mapped or the value
    array has the wrong length. *)

val average_leakage_uw : Circuit.t -> bool array list -> float
(** Mean of [total_leakage_uw] over a list of node-value snapshots
    (e.g. one per scan cycle).
    @raise Invalid_argument on an empty list. *)

val expected_gate_leakage_na : Circuit.t -> p_one:float array -> int -> float
(** Expected leakage of gate [id] when each node [n] is 1 with
    independent probability [p_one.(n)]; the building block of the
    leakage-observability propagation. *)

val expected_total_leakage_uw : Circuit.t -> p_one:float array -> float

(** {1 Scoring many states at once}

    A [model] holds a circuit's compiled form and one state -> nA row
    per logic gate, so scoring a state costs one table read per gate
    instead of a cell lookup. *)

type model

val model : Circuit.t -> model
(** @raise Invalid_argument if a logic gate has no library cell. *)

val model_compiled : model -> Compiled.t

val lane_leakage_uw : model -> int64 array -> lanes:int -> float array -> unit
(** [lane_leakage_uw m words ~lanes out]: [words] holds one 64-lane
    word per node (lane [l] of a node is bit [l]), e.g. after
    {!Compiled.eval_words}. For each lane [l < lanes], [out.(l)] gets
    the static power (uW) of that lane's node values. Gates are summed
    in node-id order, so each lane equals {!total_leakage_uw} of the
    same values bit for bit.
    @raise Invalid_argument unless [0 <= lanes <= 64] and [out] holds
    [lanes] entries. *)
