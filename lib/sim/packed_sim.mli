(** 64-lane bit-parallel simulation frames with popcount toggle
    accounting.

    One [int64] word per node carries up to 64 consecutive simulation
    cycles: lane [l] = bit [l] of the word. The driver writes the
    source words of a frame, calls {!step}, and the kernel evaluates
    the whole combinational core once for all lanes, then counts
    per-node and per-lane toggles from [popcount (prev lxor cur)] —
    including the lane-0 boundary against the final lane of the
    previous frame.

    This is the engine under the packed scan-shift measurement in
    {!Scan.Scan_sim}: during shift the chain is a pure shift register,
    so every lane's pseudo-input values are known in advance and 64
    shift cycles cost one combinational sweep. A run longer than 64
    cycles is several frames; the previous frame's final lane carries
    across each boundary. Toggle counts are bit-identical to replaying
    the same cycles one by one through {!Event_sim} (both count
    settled-state Hamming distance between consecutive cycles). *)

open Netlist

type t

val create : Compiled.t -> t
(** All scratch ([words]/[last]/lane tallies) is preallocated here;
    {!step} never allocates. *)

val words : t -> int64 array
(** Node-indexed lane words (aliased). Before each {!step} the driver
    writes the source entries; {!step} overwrites every non-source
    entry. *)

val step : t -> count:int -> record:bool -> unit
(** Evaluate one frame of [count] lanes (1..64). With [record], add
    per-node toggle counts (against the previous frame's final lane)
    into {!toggles} / {!total_toggles} and tally per-lane sums into
    {!lane_toggles}. Without it (initial settle), only the frame
    boundary state advances. Lanes at index [count] and above are
    ignored. *)

val lane_toggles : t -> int array
(** Length 64; entry [l] = total toggles in lane [l] of the last
    recorded frame (aliased; cleared by every recording {!step}). *)

val toggles : t -> int array
(** Accumulated per-node toggle counts (aliased). *)

val total_toggles : t -> int

val final_value : t -> int -> bool
(** Node value in the final lane of the last frame — the "current"
    settled state at a frame boundary. *)
