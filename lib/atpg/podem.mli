(** PODEM test-pattern generation for single stuck-at faults on the
    combinational core of a full-scan circuit (controllable lines:
    primary inputs and flip-flop outputs; observable lines: primary
    outputs and flip-flop D pins).

    The same objective / backtrace / imply machinery — without the
    D-algebra — is reused by the paper's justification engine
    ({!Scanpower.Justify}), which is why decision hooks are exposed. *)

open Netlist

type result =
  | Test of Logic.t array
      (** Test cube over [Circuit.sources c] (positional); unassigned
          positions are [X] and may be filled freely. *)
  | Untestable  (** Proven redundant within the search space. *)
  | Aborted
      (** Search given up: either the backtrack limit or the iteration
          limit (see {!generate}) was exceeded. Says nothing about
          testability. *)

val generate :
  ?guide:Scoap.t ->
  ?backtrack_limit:int ->
  ?iteration_limit:int ->
  Circuit.t ->
  Fault.t ->
  result
(** Defaults: 100 backtracks, 400 search iterations. The iteration
    limit bounds the total work per fault (hard-to-prove redundant
    faults otherwise dominate the runtime on large circuits). With
    [guide], backtrace decisions follow SCOAP controllabilities
    instead of circuit depth. *)

val detects : Circuit.t -> Fault.t -> bool array -> bool
(** [detects c f vector] checks by five-valued simulation whether the
    fully-specified source vector (positional over [Circuit.sources])
    detects the fault: used by the test suite to validate generated
    tests independently of the fault simulator. *)
