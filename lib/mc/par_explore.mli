(** The parallel model checker: one shared exact transposition table,
    work stealing by slab snapshot (DESIGN.md §4b).

    [search ?pool] explores the same bounded adversary tree as
    [Explore.search] with one worker per domain of [pool].  It falls back
    to the sequential [Explore.search] whenever the run needs what only a
    deterministic DFS gives: no pool or a 1-domain pool, a node budget
    ([--max-nodes]: bit-identical at any [--jobs]), or [~state:`Closure].

    Contract against [Explore.search]:
    - {b Violation verdict and witness: identical.}  A violation stops the
      workers and the sequential search re-finds the canonical witness;
      its whole result is returned.  The one exception: a re-run that
      finds nothing within its own state cap or clock falls back to the
      workers' violating execution, so a parallel run can report a real
      violation where the sequential run with the same flags reports
      none.
    - {b Every result field identical under [~dedup:`Off]} on runs whose
      state cap does not bind: both count exactly the choice-tree nodes.
    - {b Under dedup, counts are schedule-dependent}, and so is the
      verdict line where a complete entry hides a deeper path.
    - [max_states] is one global cap: [visited] may overshoot it only by
      each worker's unwind.  When both structural cuts occur the verdict
      is [`Depth], the sequential search's verdict too.
    - Deadlines and cancellation are polled per node on every worker.

    [?obs]: the ["mc/*"] counters of [Explore.search], recorded from the
    merged result, plus the jobs-variant ["mc/par/steals"],
    ["mc/par/claimed-skips"] (entries skipped because another worker held
    them) and ["mc/par/lock-contended"] (table-stripe [Mutex.try_lock]
    failures).  Worker domains never touch [obs]. *)

open Sim

val search :
  ?obs:Obs.t ->
  ?pool:Par.Pool.t ->
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  ?max_depth:int ->
  ?max_states:int ->
  ?state:Explore.state ->
  inputs:'a list ->
  'a Config.t ->
  'a Explore.result
