(** Incremental three-valued implication over a {!Netlist.Compiled.t},
    with a trail for undo.

    The state is a fully propagated 0/1/X assignment of every node,
    kept as a two-bit code per node. {!assign} changes one source and
    re-evaluates only its fanout cone, level by level, the way PODEM's
    implication does; every node whose value changes is logged on a
    trail, so {!undo_to} restores an earlier state exactly without a
    sweep. After any sequence of [assign]/[undo_to] calls the state
    equals {!Ternary_sim.propagate} of the current source values.

    No heap allocation on the assign/undo path except when the trail
    doubles. *)

open Netlist

type t

val create : Compiled.t -> t
(** Every source starts at [X]; the state is propagated. *)

val load : t -> Logic.t array -> unit
(** Take the source values from a node-indexed array (non-source
    entries are ignored), propagate with one full sweep and clear the
    trail.
    @raise Invalid_argument on a length mismatch. *)

val value : t -> int -> Logic.t
val is_x : t -> int -> bool

val to_array : t -> Logic.t array
(** Fresh node-indexed copy of the state. *)

val assign : t -> int -> Logic.t -> unit
(** Set source [id] and imply forward. A no-op when the value is
    unchanged.
    @raise Invalid_argument if [id] is not a source. *)

val mark : t -> int
(** Current trail position, for a later {!undo_to}. *)

val undo_to : t -> int -> unit
(** Restore the state as it was when [mark] returned the given
    position.
    @raise Invalid_argument if the position is not on the trail. *)

val commit : t -> unit
(** Forget the trail: the current state becomes the base state. *)

val events : t -> int
(** Node evaluations performed so far (full sweeps included):
    deterministic for a given sequence of calls. *)
