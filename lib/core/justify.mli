(** PODEM-style justification of an internal objective from the
    controlled inputs only (Section 4): objective -> backtrace ->
    assign -> imply -> check, with backtracking over the decisions.

    Both decision points the paper identifies are steered by the
    chosen direction: which candidate input of a transition gate to
    set to the controlling value, and which don't-care fanin Backtrace
    descends into. With [Leakage_directed], justifying a 1 prefers the
    minimum-leakage-observability line and justifying a 0 the maximum
    (Section 4); [Structural] reproduces the undirected C-algorithm
    baseline (level-based easiest-first).

    The engine keeps a propagated three-valued state of the whole
    circuit ({!Sim.Ternary_imply}): each decision implies forward from
    the changed input only, and a backtrack or a failed attempt undoes
    the trail. {!attempt} advances that state in place, so a caller
    that justifies objectives one after another (as
    FindControlledInputPattern does) never copies or re-sweeps it. *)

open Netlist

type direction =
  | Leakage_directed of Power.Observability.t
  | Structural

type t

val create :
  ?backtrack_limit:int ->
  Circuit.t ->
  controllable:int list ->
  direction:direction ->
  t
(** [controllable] lists the source node ids the engine may assign
    (primary inputs and multiplexed pseudo-inputs). Default backtrack
    limit: 50. The engine's state starts with every source at [X]. *)

val order_candidates : t -> value:Logic.t -> int list -> int list
(** Sort candidate lines for receiving [value] according to the
    engine's direction (used for the mc_tg input choice). *)

val attempt : t -> int -> Logic.t -> bool
(** [attempt t node v] tries to drive [node] to [v] from the engine's
    current state by assigning controlled inputs only. On success the
    state keeps the new assignment; on failure it is left exactly as
    before. Never un-assigns a value already definite. *)

val values : t -> Logic.t array
(** Fresh node-indexed copy of the engine's propagated state. *)

val justify : t -> values:Logic.t array -> int -> Logic.t -> Logic.t array option
(** [justify t ~values node v]: {!attempt} from the given three-valued
    assignment (its sources are loaded into the engine and
    propagated). On success returns the new fully propagated
    assignment (a fresh array; the input is not mutated); on failure
    returns [None]. *)
