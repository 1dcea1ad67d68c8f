(* An execution under construction.

   The adversary constructions of Section 3 grow an execution step by step
   while keeping bookkeeping the proofs need:

   - the full trace (so the final inconsistent execution is a replayable
     artifact, not just a claim);
   - the inputs of every process, including clones added along the way (so
     the final configuration can be checked for consistency *and*
     validity);
   - for every object, the state of the last process to apply a nontrivial
     operation to it, snapshotted *just before* that operation — this is
     the "clone left behind, poised to re-perform the last write" device of
     Section 3.1.  Process states are immutable values, so the snapshot is
     free and a clone is that value appended ([Config.add_procs]);
   - the *genealogy* of every clone — which process it snapshots and after
     how many of that process's steps — so the identical-process attack
     can later be certified: re-run from a fresh start with all clones
     present, each shadowing its origin lock-step ({!Attack.certify}).

   The builder owns one private configuration and steps it in place
   ([Run.step_inplace]): a step costs O(1) however many processes the
   construction runs (Theorem 3.7's adversary runs 3r^2 + r of them).
   Only [create], [snapshot] and [restore] copy it. *)

open Sim

(* A process at one moment: what a clone of it needs. *)
type proc_snapshot = {
  state : int Proc.t;
  fp : Fingerprint.t;  (** its fingerprint at that same moment *)
  input : int;
  origin : int;  (** its pid *)
  steps : int;  (** steps it had completed by then *)
}

type lineage = { clone : int; origin : int; cutoff : int }
(** [clone] behaves like [origin] after [cutoff] of the origin's steps. *)

type t = {
  mutable config : int Config.t;  (** private: no caller holds a copy *)
  mutable rev_trace : int Event.t list;
  mutable inputs : int array;  (** per pid, clones included *)
  mutable steps_done : int array;  (** per pid: steps completed *)
  mutable genealogy : lineage list;
  mutable last_writer : proc_snapshot option array;
      (** per object: the last nontrivial writer just before its op *)
}

let create ~config ~inputs =
  let inputs = Array.of_list inputs in
  if Array.length inputs <> Config.n_procs config then
    invalid_arg "Builder.create: one input per process";
  {
    config = Config.copy config;
    rev_trace = [];
    inputs;
    steps_done = Array.make (Array.length inputs) 0;
    genealogy = [];
    last_writer = Array.make (Config.n_objects config) None;
  }

let config t = t.config
let trace t = List.rev t.rev_trace
let inputs t = Array.to_list t.inputs
let n_procs t = Config.n_procs t.config
let genealogy t = List.rev t.genealogy

let input_of t pid =
  if pid < 0 || pid >= Array.length t.inputs then
    invalid_arg "Builder.input_of: unknown pid"
  else t.inputs.(pid)

let steps_of t pid = t.steps_done.(pid)

let proc_snapshot t pid =
  {
    state = t.config.Config.procs.(pid);
    fp = Config.fingerprint t.config pid;
    input = input_of t pid;
    origin = pid;
    steps = steps_of t pid;
  }

(** Snapshot for later rollback: copies of the configuration and the
    per-pid and per-object tables (traces are immutable lists, shared). *)
type snapshot = {
  s_config : int Config.t;
  s_rev_trace : int Event.t list;
  s_inputs : int array;
  s_steps_done : int array;
  s_genealogy : lineage list;
  s_last_writer : proc_snapshot option array;
}

let snapshot t =
  {
    s_config = Config.copy t.config;
    s_rev_trace = t.rev_trace;
    s_inputs = Array.copy t.inputs;
    s_steps_done = Array.copy t.steps_done;
    s_genealogy = t.genealogy;
    s_last_writer = Array.copy t.last_writer;
  }

(* copies again, so one snapshot can be restored any number of times *)
let restore t s =
  t.config <- Config.copy s.s_config;
  t.rev_trace <- s.s_rev_trace;
  t.inputs <- Array.copy s.s_inputs;
  t.steps_done <- Array.copy s.s_steps_done;
  t.genealogy <- s.s_genealogy;
  t.last_writer <- Array.copy s.s_last_writer

(** Perform one step of [pid].  [coin] supplies the outcome if the step is
    an internal coin flip (raises if a coin is needed but none given). *)
let step t ~pid ?coin () =
  (match Triviality.poised_write t.config pid with
  | Some (obj, _) -> t.last_writer.(obj) <- Some (proc_snapshot t pid)
  | None -> ());
  let coin_fn _n =
    match coin with
    | Some c -> c
    | None -> invalid_arg "Builder.step: coin flip without an outcome"
  in
  let events = Run.step_inplace t.config ~pid ~coin:coin_fn in
  t.rev_trace <- List.rev_append events t.rev_trace;
  t.steps_done.(pid) <- t.steps_done.(pid) + 1;
  Work.add_builder_step ()

(* Append clones of the given process snapshots, in order, with one copy
   of the configuration; returns their pids.  Each clone carries its
   origin's fingerprint at the snapshot moment, so clone and origin stay
   fingerprint-equal exactly when they are state-equal. *)
let add_clones t (snaps : proc_snapshot list) =
  let config', first =
    Config.add_procs t.config (List.map (fun s -> (s.state, s.fp)) snaps)
  in
  t.config <- config';
  t.inputs <-
    Array.append t.inputs (Array.of_list (List.map (fun s -> s.input) snaps));
  t.steps_done <- Array.append t.steps_done (Array.make (List.length snaps) 0);
  List.mapi
    (fun i (s : proc_snapshot) ->
      let clone = first + i in
      t.genealogy <-
        { clone; origin = s.origin; cutoff = s.steps } :: t.genealogy;
      clone)
    snaps

let last_writer t obj =
  match t.last_writer.(obj) with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf
           "Builder.clone_last_writers: no write recorded on obj %d" obj)

(** Clones poised to re-perform the last nontrivial operation applied to
    each object (Section 3.1's "clone left behind").  Requires that some
    nontrivial operation on each has been recorded. *)
let clone_last_writers t ~objs = add_clones t (List.map (last_writer t) objs)

(** Clones of existing (live) processes in their current states. *)
let clones_of t ~pids = add_clones t (List.map (proc_snapshot t) pids)

(** A block write (Section 3): one nontrivial operation on each object in
    the set, by the given poised writers, in object order.  Asserts every
    writer really is poised at its object. *)
let block_write t writers =
  List.iter
    (fun (obj, pid) ->
      (match Triviality.poised_write t.config pid with
      | Some (o, _) when o = obj -> ()
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Builder.block_write: P%d is not poised at obj %d" pid obj));
      step t ~pid ())
    writers

(** Run [pid] with the given coin outcomes until it decides, runs out of
    coins at a flip, or [stop] holds of its state (checked before each
    step).  Returns the unused coins. *)
let run_coins t ~pid ~coins ?(stop = fun _ -> false) () =
  let rec go coins =
    let proc = t.config.Config.procs.(pid) in
    if Proc.is_decided proc || stop proc then coins
    else
      match (proc, coins) with
      | Proc.Choose _, [] -> coins
      | Proc.Choose _, c :: rest ->
          step t ~pid ~coin:c ();
          go rest
      | (Proc.Apply _ | Proc.Decide _), _ ->
          step t ~pid ();
          go coins
  in
  go coins

(** Position marker into the trace; use with [events_since] to extract the
    events of a segment just executed. *)
type mark = int Event.t list

let mark t : mark = t.rev_trace

let events_since t (m : mark) =
  let rec take acc rev =
    if rev == m then acc
    else
      match rev with
      | [] -> acc
      | ev :: rest -> take (ev :: acc) rest
  in
  take [] t.rev_trace

let decisions t = Config.decisions t.config

let verdict t = Checker.check ~inputs:(inputs t) ~decisions:(decisions t)
