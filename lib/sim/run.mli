(** Executing configurations: the pure single-step function and two
    scheduler-driven runners with identical semantics (a property test
    asserts trace equivalence). *)

type outcome = All_decided | Max_steps | Scheduler_stopped

val outcome_to_string : outcome -> string

(** Inverse of {!outcome_to_string}; [None] on unknown input.  Used by
    durable formats (trace dumps, checkpoints) that must re-parse what
    they print. *)
val outcome_of_string : string -> outcome option

(** Every [outcome] constructor, for round-trip sweeps. *)
val all_outcomes : outcome list

type 'a result = {
  config : 'a Config.t;
  trace : 'a Trace.t;
  steps : int;
  outcome : outcome;
}

(** Raised when stepping an already-decided process. *)
exception Step_disabled of int

(** Pure step of process [pid]: returns the successor configuration (the
    input is unchanged) and the emitted events — the step itself plus
    [Decided] if the process just decided.  [coin] supplies outcomes for
    internal flips; out-of-range outcomes raise [Invalid_argument].
    Ignores [halted] flags: the caller decides who may move. *)
val step :
  'a Config.t -> pid:int -> coin:(int -> int) -> 'a Config.t * 'a Event.t list

(** {!step} without event construction: same successor configuration,
    nothing allocated beyond the configuration copy.  The model checker's
    happy path; decisions are read back off the configuration. *)
val step_quiet : 'a Config.t -> pid:int -> coin:(int -> int) -> 'a Config.t

(** {!step} on the configuration itself: mutates [config] in place and
    returns the same events, with no copy.  For callers that own a private
    configuration (the runners below, [Lowerbound.Builder]). *)
val step_inplace :
  'a Config.t -> pid:int -> coin:(int -> int) -> 'a Event.t list

(** Drive a scheduler for at most [max_steps] steps (default 100_000),
    copying configurations (persistent). *)
val exec : ?max_steps:int -> 'a Sched.t -> 'a Config.t -> 'a result

(** Same contract as {!exec} but mutates a private copy in place; use for
    long measurement runs. *)
val exec_fast : ?max_steps:int -> 'a Sched.t -> 'a Config.t -> 'a result

(** {!exec_fast} with crash injection: [crashes] maps step indices to pids
    halted just before that step; recorded as [Halted] events. *)
val exec_with_crashes :
  ?max_steps:int ->
  crashes:(int * int) list ->
  'a Sched.t ->
  'a Config.t ->
  'a result

(** Deterministically replay a recorded schedule script.  [`Crash pid]
    halts a process (skipped when out of range or already disabled);
    [`Step (pid, coin)] steps one, with [coin] supplying the outcome if
    the process is poised at an internal flip ([None] or an out-of-range
    outcome falls back to 0).  Elements whose pid is disabled are skipped,
    so {e any} script replays to completion — the property the fuzzer's
    shrinker relies on (deleting elements can deactivate later ones but
    never wedge the replay).  Stops at [All_decided] as soon as every
    process has decided; an exhausted script is [Scheduler_stopped]. *)
val exec_script :
  ?max_steps:int ->
  script:[ `Step of int * int option | `Crash of int ] list ->
  'a Config.t ->
  'a result

(** Run [pid] solo with the given coin outcomes until it decides, runs out
    of coins at a flip, or [max_steps] is reached.  Returns final
    configuration, trace, and unused coins. *)
val run_solo_with_coins :
  'a Config.t ->
  pid:int ->
  coins:int list ->
  ?max_steps:int ->
  unit ->
  'a Config.t * 'a Trace.t * int list
