(* Executing configurations.

   [step] is the *pure* single-step function: it copies the configuration, so
   callers (the closure model checker) can keep the old one; [step_inplace]
   mutates a configuration its caller owns.
   [exec] drives a scheduler over the pure step.  [exec_fast] is an in-place
   variant with identical semantics for long measurement runs; a property
   test asserts trace equivalence between the two. *)

type outcome = All_decided | Max_steps | Scheduler_stopped

let outcome_to_string = function
  | All_decided -> "all-decided"
  | Max_steps -> "max-steps"
  | Scheduler_stopped -> "scheduler-stopped"

(* A new constructor must be added here too (the round-trip test sweeps
   this list), but it cannot silently diverge in naming: the parser is
   defined as the inverse of [outcome_to_string], whose match the
   compiler keeps exhaustive. *)
let all_outcomes = [ All_decided; Max_steps; Scheduler_stopped ]

let outcome_of_string s =
  List.find_opt (fun outcome -> outcome_to_string outcome = s) all_outcomes

type 'a result = {
  config : 'a Config.t;
  trace : 'a Trace.t;
  steps : int;
  outcome : outcome;
}

exception Step_disabled of int

(* Shared core: compute the successor state of process [pid] plus the events
   of that step, given the (already current) object array.  Also returns the
   process's updated consumed-history fingerprint (see [Fingerprint]): the
   response is mixed in on [Apply], the outcome on [Choose]. *)
let step_events (config : 'a Config.t) ~pid ~coin ~objects =
  match config.procs.(pid) with
  | Proc.Decide _ -> raise (Step_disabled pid)
  | Proc.Apply { obj; op; k } ->
      let value, resp = Optype.apply config.optypes.(obj) objects.(obj) op in
      let proc' = k resp in
      let fp' = Fingerprint.mix config.fps.(pid) (Fingerprint.value_hash resp) in
      let ev = Event.Applied { pid; obj; op; resp } in
      (proc', fp', Some (obj, value), ev)
  | Proc.Choose { n; k } ->
      let outcome = coin n in
      if outcome < 0 || outcome >= n then
        invalid_arg "Run.step: coin outcome out of range";
      let proc' = k outcome in
      let fp' = Fingerprint.mix config.fps.(pid) outcome in
      (proc', fp', None, Event.Coin { pid; n; outcome })

(** Pure step: returns the successor configuration and the events emitted
    (the step itself, plus [Decided] if the process just decided).  Raises
    [Step_disabled] on a decided process and ignores [halted] flags — the
    caller decides who is allowed to move. *)
let step (config : 'a Config.t) ~pid ~coin =
  let config' = Config.copy config in
  let proc', fp', write_back, ev =
    step_events config ~pid ~coin ~objects:config'.objects
  in
  (match write_back with
  | Some (obj, value) -> config'.objects.(obj) <- value
  | None -> ());
  config'.procs.(pid) <- proc';
  config'.fps.(pid) <- fp';
  let events =
    match Proc.decision proc' with
    | Some value -> [ ev; Event.Decided { pid; value } ]
    | None -> [ ev ]
  in
  (config', events)

(** Pure step without event construction — same successor configuration as
    {!step}, nothing else allocated beyond the configuration copy.  The
    model checker's happy path: whether the process just decided (and what
    it decided) is read back off the configuration. *)
let step_quiet (config : 'a Config.t) ~pid ~coin =
  let config' = Config.copy config in
  (match config.procs.(pid) with
  | Proc.Decide _ -> raise (Step_disabled pid)
  | Proc.Apply { obj; op; k } ->
      let value, resp =
        Optype.apply config.optypes.(obj) config'.objects.(obj) op
      in
      config'.objects.(obj) <- value;
      config'.procs.(pid) <- k resp;
      config'.fps.(pid) <-
        Fingerprint.mix config.fps.(pid) (Fingerprint.value_hash resp)
  | Proc.Choose { n; k } ->
      let outcome = coin n in
      if outcome < 0 || outcome >= n then
        invalid_arg "Run.step: coin outcome out of range";
      config'.procs.(pid) <- k outcome;
      config'.fps.(pid) <- Fingerprint.mix config.fps.(pid) outcome);
  config'

(** In-place step on a configuration the caller owns privately. *)
let step_inplace (config : 'a Config.t) ~pid ~coin =
  let proc', fp', write_back, ev =
    step_events config ~pid ~coin ~objects:config.objects
  in
  (match write_back with
  | Some (obj, value) -> config.objects.(obj) <- value
  | None -> ());
  config.procs.(pid) <- proc';
  config.fps.(pid) <- fp';
  match Proc.decision proc' with
  | Some value -> [ ev; Event.Decided { pid; value } ]
  | None -> [ ev ]

let finish config rev_trace steps outcome =
  { config; trace = List.rev rev_trace; steps; outcome }

(** Drive [sched] from [config] for at most [max_steps] steps. *)
let exec ?(max_steps = 100_000) (sched : 'a Sched.t) (config : 'a Config.t) =
  let rec go config rev_trace steps =
    if Config.all_decided config then
      finish config rev_trace steps All_decided
    else if steps >= max_steps then finish config rev_trace steps Max_steps
    else
      match sched.choose config ~step:steps with
      | None -> finish config rev_trace steps Scheduler_stopped
      | Some pid ->
          let config', events =
            step config ~pid ~coin:(fun n -> sched.coin ~pid ~n)
          in
          go config' (List.rev_append events rev_trace) (steps + 1)
  in
  go config [] 0

(** Same contract as [exec], but mutates a private copy of [config] in
    place.  Use for long measurement runs. *)
let exec_fast ?(max_steps = 100_000) (sched : 'a Sched.t)
    (config : 'a Config.t) =
  let config = Config.copy config in
  let rev_trace = ref [] in
  let steps = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    if Config.all_decided config then outcome := Some All_decided
    else if !steps >= max_steps then outcome := Some Max_steps
    else
      match sched.choose config ~step:!steps with
      | None -> outcome := Some Scheduler_stopped
      | Some pid ->
          let events =
            step_inplace config ~pid ~coin:(fun n -> sched.coin ~pid ~n)
          in
          rev_trace := List.rev_append events !rev_trace;
          incr steps
  done;
  match !outcome with
  | Some o -> finish config !rev_trace !steps o
  | None -> assert false

(** Like {!exec_fast}, with crash injection: [crashes] maps step indices to
    pids halted just before that step — the paper's "a process may become
    faulty at a given point in an execution".  Crashes are recorded as
    [Halted] events. *)
let exec_with_crashes ?(max_steps = 100_000) ~crashes (sched : 'a Sched.t)
    (config : 'a Config.t) =
  let config = Config.copy config in
  let rev_trace = ref [] in
  let steps = ref 0 in
  let outcome = ref None in
  let remaining = ref (List.sort compare crashes) in
  while !outcome = None do
    (match !remaining with
    | (at, pid) :: rest when at <= !steps ->
        remaining := rest;
        if Config.is_enabled config pid then begin
          config.Config.halted.(pid) <- true;
          rev_trace := Event.Halted { pid } :: !rev_trace
        end
    | _ -> ());
    if Config.all_decided config then outcome := Some All_decided
    else if !steps >= max_steps then outcome := Some Max_steps
    else
      match sched.Sched.choose config ~step:!steps with
      | None -> outcome := Some Scheduler_stopped
      | Some pid ->
          let events =
            step_inplace config ~pid ~coin:(fun n -> sched.Sched.coin ~pid ~n)
          in
          rev_trace := List.rev_append events !rev_trace;
          incr steps
  done;
  match !outcome with
  | Some o -> finish config !rev_trace !steps o
  | None -> assert false

(** Deterministically replay a recorded schedule script (see [Fuzz.Schedule]
    for the recording side).  Each element either crashes a process
    ([`Crash pid], a no-op when the pid is out of range or already
    disabled) or steps one ([`Step (pid, coin)]), where [coin] supplies
    the outcome if the process is poised at an internal flip — [None] or
    an out-of-range outcome falls back to 0, so a script spliced by the
    shrinker can never desynchronize the replay into an error.  Elements
    whose pid is disabled are skipped rather than rejected: deleting
    earlier script elements may change who is still enabled, and total
    replays are exactly what makes delta-debugging candidates cheap to
    evaluate. *)
let exec_script ?(max_steps = 100_000) ~script (config : 'a Config.t) =
  let config = Config.copy config in
  let n = Config.n_procs config in
  let rev_trace = ref [] in
  let steps = ref 0 in
  let rec go script =
    if Config.all_decided config then All_decided
    else if !steps >= max_steps then Max_steps
    else
      match script with
      | [] -> Scheduler_stopped
      | `Crash pid :: rest ->
          if pid >= 0 && pid < n && Config.is_enabled config pid then begin
            config.Config.halted.(pid) <- true;
            rev_trace := Event.Halted { pid } :: !rev_trace
          end;
          go rest
      | `Step (pid, coin) :: rest ->
          if pid >= 0 && pid < n && Config.is_enabled config pid then begin
            let coin k =
              match coin with Some c when c >= 0 && c < k -> c | _ -> 0
            in
            let events = step_inplace config ~pid ~coin in
            rev_trace := List.rev_append events !rev_trace;
            incr steps
          end;
          go rest
  in
  let outcome = go script in
  finish config !rev_trace !steps outcome

(** Run process [pid] solo with explicitly given coin outcomes; stops when
    the process decides, the coins run out, or [max_steps] is reached.
    Returns the final configuration, trace, and unused coins.  This is the
    workhorse of the solo-termination search in [lowerbound]. *)
let run_solo_with_coins (config : 'a Config.t) ~pid ~coins
    ?(max_steps = 10_000) () =
  let rec go config rev_trace coins steps =
    if (not (Config.is_enabled config pid)) || steps >= max_steps then
      (config, List.rev rev_trace, coins)
    else
      match (config.procs.(pid), coins) with
      | Proc.Choose _, [] -> (config, List.rev rev_trace, [])
      | _ ->
          let used = ref false in
          let coin _n =
            used := true;
            match coins with c :: _ -> c | [] -> assert false
          in
          let config', events = step config ~pid ~coin in
          let coins = if !used then List.tl coins else coins in
          go config' (List.rev_append events rev_trace) coins (steps + 1)
  in
  go config [] coins 0
