(** Unified resource governance for search entry points.

    A {!t} bundles the four ways a long-running exploration can be told to
    stop: a node budget (search-tree configurations), a step budget
    (scheduler steps inside constructions), a wall-clock deadline, and a
    {!Cancel.t} token.  The four are not equally well-behaved and callers
    must not pretend otherwise:

    - {b Node and step budgets are deterministic.}  A search governed by
      [nodes = Some k] visits exactly the first [k] nodes of the
      sequential DFS preorder — bit-for-bit the same set of nodes, counters
      and verdict on every run and under any [--jobs] setting (a
      node-budgeted model-checking run always takes the sequential
      search; see DESIGN.md §4d).
    - {b Deadlines and cancellation are best-effort.}  They are polled
      every [poll_every] ticks, so overshoot is bounded by the cost of
      that many nodes plus the current chunk in the [Par] pool, and two
      runs with the same deadline may truncate at different frontiers.

    A truncated safe verdict is an under-approximation: it means "no
    violation among the states we visited", never a proof of correctness.
    Every governed entry point therefore reports a {!completeness} verdict
    alongside its result instead of raising or silently clamping. *)

(** Why an exploration stopped short of exhaustiveness.  [`Depth] and
    [`States] are the legacy structural bounds ([max_depth]/[max_states]);
    the other four originate from a {!t}. *)
type reason = [ `Depth | `States | `Nodes | `Steps | `Deadline | `Cancelled ]

type completeness = [ `Exhaustive | `Truncated of reason ]

val reason_to_string : reason -> string

(** Inverse of {!reason_to_string}; [None] on unknown input.  Used by the
    checkpoint file format. *)
val reason_of_string : string -> reason option

val completeness_to_string : completeness -> string

val is_exhaustive : completeness -> bool

(** [merge a b] keeps the earliest truncation: [a] unless [a] is
    [`Exhaustive].  Folding it over per-subtree verdicts in task order
    yields the sequential first-reason semantics. *)
val merge : completeness -> completeness -> completeness

type t = {
  nodes : int option;  (** max search-tree nodes (deterministic) *)
  steps : int option;  (** max scheduler/solo steps (deterministic) *)
  deadline : float option;
      (** absolute [Unix.gettimeofday] instant (best-effort) *)
  cancel : Cancel.t option;  (** cooperative cancellation (best-effort) *)
  on_poll : (nodes:int -> steps:int -> unit) option;
      (** observer hook invoked on every poll boundary with the meter's
          consumed counts — the vehicle for [--progress] heartbeats (see
          [Obs.Progress]).  Purely informational: it cannot trip the
          budget, and in parallel searches it fires on whichever domain's
          meter crossed the boundary, so it must be multi-domain safe. *)
}

(** No limits at all.  Meters are not even created for it, so the default
    path pays nothing. *)
val unlimited : t

(** [make ?nodes ?steps ?deadline ?cancel ?on_poll ()] — [deadline] is
    given in seconds {e relative to now} and stored as an absolute
    instant, so a budget threaded through nested calls keeps one fixed
    horizon.  A budget carrying only [on_poll] is {e not} unlimited:
    entry points create a meter for it so the hook gets its cadence. *)
val make :
  ?nodes:int ->
  ?steps:int ->
  ?deadline:float ->
  ?cancel:Cancel.t ->
  ?on_poll:(nodes:int -> steps:int -> unit) ->
  unit ->
  t


val is_unlimited : t -> bool

(** Raised by {!Meter.guard_step} (and available to any governed loop that
    prefers unwinding to threading verdicts).  Entry points catch it at
    their boundary and turn it into [`Truncated reason]; it must not
    escape a public API. *)
exception Exhausted of reason

(** Mutable consumption state for one governed run.  Deterministic checks
    (nodes, steps) are exact on every tick; deadline and cancellation are
    polled only when the tick count crosses a [poll_every] boundary.  A
    meter latches: once tripped it reports the same reason forever.  Not
    thread-safe — create one meter per domain. *)
module Meter : sig
  type budget := t

  type t

  (** [poll_every] is rounded up to a power of two; default 512. *)
  val create : ?poll_every:int -> budget -> t

  (** Nodes / steps consumed so far (ticks that returned [None]). *)
  val nodes : t -> int

  val steps : t -> int

  (** Poll-boundary checks performed so far (deadline/cancel inspections
      plus [on_poll] firings) — the denominator of the metering-overhead
      story, surfaced as the ["budget/polls"] counter by instrumented
      entry points. *)
  val polls : t -> int

  val tripped : t -> reason option

  (** Account one node about to be processed.  [None] means proceed (and
      the node is now counted); [Some r] means the node must {e not} be
      processed — it is not counted, making the trip point an exact
      resume cursor.  A deadline trip also sets the budget's cancel token
      (if any) so sibling pool tasks stop claiming work. *)
  val tick_node : t -> reason option

  (** Same contract for scheduler/solo steps. *)
  val tick_step : t -> reason option

  (** [take_nodes m k] accounts up to [k] nodes and returns how many were
      admitted before the budget tripped (so [< k] means the meter is now
      tripped).  Batch admission for campaign-shaped workloads: admit a
      batch, dispatch exactly the admitted prefix. *)
  val take_nodes : t -> int -> int

  (** [tick_node]/[tick_step] variants that raise {!Exhausted}. *)
  val guard_node : t -> unit

  val guard_step : t -> unit
end
