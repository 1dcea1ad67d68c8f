(** Executions under construction: the adversary grows an execution step
    by step while keeping the bookkeeping the proofs need — the full
    trace, the inputs of every process (clones included), and per object
    a snapshot of the last nontrivial writer's state taken just before its
    operation (the "clone left behind" device of Section 3.1).

    A builder owns one private configuration and steps it in place, so a
    step costs O(1) in the number of processes. *)

open Sim

type t

type lineage = { clone : int; origin : int; cutoff : int }
(** [clone] behaves like [origin] after [cutoff] of the origin's steps —
    the data {!Attack.certify} needs to realize clones as genuine
    identical processes shadowing their origins lock-step. *)

(** [create ~config ~inputs] starts from a private copy of [config]: the
    caller's configuration is never mutated.  [inputs] gives one input per
    process of [config] (raises [Invalid_argument] otherwise). *)
val create : config:int Config.t -> inputs:int list -> t

(** The current configuration: a live, read-only view, valid until the
    builder's next step, clone or restore.  Copy it ([Config.copy]) to
    keep it longer; never mutate it. *)
val config : t -> int Config.t

val trace : t -> int Trace.t
val inputs : t -> int list
val n_procs : t -> int

(** Clone genealogy, in creation order. *)
val genealogy : t -> lineage list

(** Steps completed by a process so far. *)
val steps_of : t -> int -> int

(** Input of a process; raises [Invalid_argument] for unknown pids. *)
val input_of : t -> int -> int

(** {1 Snapshots} *)

type snapshot

(** Copies the configuration and the per-process tables: O(n). *)
val snapshot : t -> snapshot

(** Back to the snapshot's state (copied again, so a snapshot can be
    restored more than once). *)
val restore : t -> snapshot -> unit

(** {1 Stepping} *)

(** One step of [pid]; [coin] supplies the outcome when the step is an
    internal flip (raises otherwise). *)
val step : t -> pid:int -> ?coin:int -> unit -> unit

(** One clone per object, in order, each poised to re-perform the last
    nontrivial operation on its object; returns the clones' pids.  Raises
    if no operation was recorded on one of them.  The configuration is
    copied once per call, however many clones it adds. *)
val clone_last_writers : t -> objs:int list -> int list

(** Clones of live processes in their current states, in order; returns
    their pids.  One configuration copy per call. *)
val clones_of : t -> pids:int list -> int list

(** A block write (Section 3): one nontrivial operation on each listed
    object by its poised writer, in order; raises if a writer is not
    poised as claimed. *)
val block_write : t -> (int * int) list -> unit

(** Run [pid] with the given coin outcomes until it decides, exhausts the
    coins at a flip, or [stop] holds of its state (checked before each
    step); returns unused coins. *)
val run_coins :
  t ->
  pid:int ->
  coins:int list ->
  ?stop:(int Proc.t -> bool) ->
  unit ->
  int list

(** {1 Trace segments} *)

type mark

val mark : t -> mark

(** Events appended since the mark, in order. *)
val events_since : t -> mark -> int Event.t list

(** {1 Verdicts} *)

val decisions : t -> int list
val verdict : t -> Checker.verdict
