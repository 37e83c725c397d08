(** The monitor's narrow call interface (§3.2) and its dispatcher.

    The call vocabulary and its wire encoding are {!Op}'s, re-exported
    here; this module adds the dispatcher a trapping guest reaches.

    The dispatcher never raises on any input: every malformed or
    unauthorized call returns an error value, which the property tests
    check against arbitrary call sequences. *)

include module type of struct
  include Op
end

type response = (result_value, Monitor.error) result

val pp_response : Format.formatter -> response -> unit

val dispatch : Monitor.t -> caller:Domain.id -> core:int -> call -> response
(** Execute one call on behalf of [caller] (as identified by the
    trapping hardware on [core]) through {!Monitor.exec}. Total: no
    exceptions escape. Every dispatch runs inside a balanced
    [Obs.Profile.span] named ["api." ^ op_name call], tagged with the
    caller domain and the backend name. *)
