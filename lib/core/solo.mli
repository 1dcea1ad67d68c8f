(** Nondeterministic solo termination (Section 2), made effective: search
    the tree of a process's internal coin outcomes for a finite solo
    execution reaching a goal.  Protocols for which the search fails
    within its budget are reported as such, never silently assumed
    terminating. *)

open Sim

type 'a found = {
  coins : int list;  (** coin outcomes along the found path, in order *)
  decision : 'a option;  (** [Some v] iff the goal state has pid decided *)
  steps : int;
}

(** Goal: pid decided, or [stop] holds of its state (checked before each
    step).  The search reads [config] and never mutates it; its state is
    the process term plus the object values, so a node costs O(r) however
    many processes [config] holds.

    With [rng], coin outcomes at each node are tried in a shuffled order —
    a randomized restart of the same complete search, deterministic for a
    fixed generator state (used by the parallel seed sweeps in
    {!Attack}).

    [?meter] layers a caller-wide budget (deadline, cancellation, global
    step cap) over the local bounds: exhausting [max_steps]/[max_nodes]
    means "no witness" and returns [None], while a metered trip raises
    {!Robust.Budget.Exhausted} to unwind the whole construction — the
    caller's entry point (e.g. [General_attack.run]) turns it into an
    explicit [`Truncated]-style verdict. *)
val search :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?meter:Robust.Budget.Meter.t ->
  ?stop:('a Proc.t -> bool) ->
  ?rng:Rng.t ->
  'a Config.t ->
  pid:int ->
  'a found option

(** Decision goal only. *)
val terminating :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?meter:Robust.Budget.Meter.t ->
  ?rng:Rng.t ->
  'a Config.t ->
  pid:int ->
  'a found option

(** Goal predicate: poised at a nontrivial operation on an object outside
    [inside] — Lemma 3.4's "until decided or poised at an object in
    V-bar". *)
val poised_outside : int list -> 'a Proc.t -> bool

(** Goal predicate: poised at any nontrivial operation — cuts a solo
    execution at its first write (Lemma 3.2). *)
val poised_anywhere : 'a Proc.t -> bool
