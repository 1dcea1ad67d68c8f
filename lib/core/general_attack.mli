(** Lemma 3.6 / Theorem 3.7, as a program: the adversary for arbitrary
    (not necessarily identical) processes over historyless objects.  No
    cloning: interruptible executions and excess capacity throughout. *)

open Sim

type outcome = {
  trace : int Trace.t;
  config : int Config.t;
  verdict : Checker.verdict;
  inputs : int list;
  processes_used : int;
  registers : int;
  pieces_alpha : int;
  pieces_beta : int;
  solo_nodes : int;  (** nodes visited by the construction's solo searches *)
  builder_steps : int;
      (** steps taken through every builder of the construction — the
          witnesses' scratch builds and the final splice alike *)
}

type error =
  | Side_decides_wrong of { side : int; got : int }
  | Construction_failed of string
  | Budget_exhausted of Robust.Budget.reason
      (** the governed construction was cut short: no witness {e and} no
          evidence of robustness — an explicitly unknown outcome *)

val error_to_string : error -> string

(** The paper's 3r^2 + r plus the slack the executable construction needs
    at its final level (see DESIGN.md). *)
val default_processes : int -> int

(** [?budget] governs the construction's internal solo searches (via
    {!Combine.with_budget_meter}); a trip surfaces as
    [Error (Budget_exhausted reason)] instead of an exception. *)
val run :
  ?budget:Robust.Budget.t ->
  ?processes:int ->
  Consensus.Protocol.t ->
  (outcome, error) result

val succeeded : outcome -> bool

(** Smallest (even) process count at which the attack lands, searched
    upward.  With [?pool], candidate counts are evaluated in parallel
    batches; the result is identical to the sequential scan.  With
    [?budget], a candidate that trips the budget before any smaller
    candidate succeeded yields [`Truncated] — the minimum is unknowable
    this run, and reporting a later success would overstate the bound. *)
val minimum_processes_gov :
  ?pool:Par.Pool.t ->
  ?budget:Robust.Budget.t ->
  ?start:int ->
  ?limit:int ->
  Consensus.Protocol.t ->
  [ `Found of int | `Not_found | `Truncated of Robust.Budget.reason ]

(** [minimum_processes_gov] without a budget, as an option. *)
val minimum_processes :
  ?pool:Par.Pool.t ->
  ?start:int ->
  ?limit:int ->
  Consensus.Protocol.t ->
  int option

(** Run the attack against a batch of protocols in parallel; results in
    input order. *)
val sweep :
  ?pool:Par.Pool.t ->
  ?budget:Robust.Budget.t ->
  ?processes:int ->
  Consensus.Protocol.t list ->
  (string * (outcome, error) result) list

(** Independent cross-check by exhaustive model checking: search the
    protocol's execution tree on a small mixed-input instance
    ([?processes], default 2, split half-and-half) and report the
    [Mc.Explore] result — a violation in it confirms, by an unrelated
    method, that the protocol is genuinely attackable.  [?dedup] defaults
    to [`Symmetric], sound for any packaged protocol. *)
val confirm :
  ?budget:Robust.Budget.t ->
  ?dedup:Mc.Explore.dedup ->
  ?processes:int ->
  ?max_depth:int ->
  ?max_states:int ->
  Consensus.Protocol.t ->
  int Mc.Explore.result
