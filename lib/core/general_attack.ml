(* Lemma 3.6 / Theorem 3.7, as a program: the adversary for *arbitrary*
   (not necessarily identical) processes over historyless objects.

   Given a protocol using r historyless objects and enough processes
   (3r^2 + r in the paper; the constructions here are given a little slack
   on top — see EXPERIMENTS.md E3 for the measured minima):

   1. Split the processes into P (inputs 0) and Q (inputs 1).
   2. Build, from the initial configuration, an interruptible execution
      alpha over P with initial object set {} and excess capacity r for
      all objects (Lemma 3.4); it involves only processes with input 0, so
      it must decide 0 — anything else is itself a validity anomaly, which
      we report.  Symmetrically beta over Q decides 1.
   3. Splice alpha and beta (Lemma 3.5) into one execution deciding both.

   No cloning is involved anywhere: this is the paper's general
   construction, where excess capacity plays the role clones play in the
   identical-process case. *)

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
  builder_steps : int;  (** steps the construction took, replays included *)
}

type error =
  | Side_decides_wrong of { side : int; got : int }
  | Construction_failed of string
  | Budget_exhausted of Robust.Budget.reason

let error_to_string = function
  | Side_decides_wrong { side; got } ->
      Printf.sprintf
        "interruptible execution over input-%d processes decided %d" side got
  | Construction_failed msg -> "construction failed: " ^ msg
  | Budget_exhausted reason ->
      Printf.sprintf "budget exhausted (%s) before the construction finished"
        (Robust.Budget.reason_to_string reason)

(** Paper bound plus the slack our executable construction needs at the
    final level (the paper's count is exactly tight and leaves the last
    piece without a process to run to a decision; see DESIGN.md). *)
let default_processes r = (3 * r * r) + r + (2 * ((2 * r) + 1))

let run ?budget ?processes (p : Consensus.Protocol.t) =
  let probe_n = 2 in
  let r = List.length (p.Consensus.Protocol.optypes ~n:probe_n) in
  let m =
    match processes with Some m -> m | None -> default_processes r
  in
  let half = m / 2 in
  let m = 2 * half in
  let inputs = List.init m (fun pid -> if pid < half then 0 else 1) in
  let pset = List.init half Fun.id in
  let qset = List.init half (fun i -> half + i) in
  let config = Consensus.Protocol.initial_config p ~inputs in
  let objs = List.init (Config.n_objects config) Fun.id in
  let build side_pids =
    let scratch = Builder.create ~config ~inputs in
    Build_interruptible.construct scratch ~all_objects:objs ~vset:[]
      ~pset:side_pids ~uset:objs ~e:r
  in
  let attack () =
    let a = build pset and b_ = build qset in
    let wa = a.Build_interruptible.witness
    and wb = b_.Build_interruptible.witness in
    if wa.Interruptible.decides <> 0 then
      Error (Side_decides_wrong { side = 0; got = wa.Interruptible.decides })
    else if wb.Interruptible.decides <> 1 then
      Error (Side_decides_wrong { side = 1; got = wb.Interruptible.decides })
    else begin
      let aside =
        {
          Splice.witness = wa;
          pset;
          excess = a.Build_interruptible.released;
          decides = 0;
        }
      in
      let bside =
        {
          Splice.witness = wb;
          pset = qset;
          excess = b_.Build_interruptible.released;
          decides = 1;
        }
      in
      let b = Builder.create ~config ~inputs in
      Splice.combine b aside bside;
      Ok
        ( b,
          List.length wa.Interruptible.pieces,
          List.length wb.Interruptible.pieces )
    end
  in
  try
    Combine.with_budget_meter budget @@ fun () ->
    match Work.measure attack with
    | Error e, _ -> Error e
    | Ok (b, pieces_alpha, pieces_beta), work ->
        Ok
          {
            trace = Builder.trace b;
            config = Builder.config b;
            verdict = Builder.verdict b;
            inputs;
            processes_used = m;
            registers = r;
            pieces_alpha;
            pieces_beta;
            solo_nodes = work.Work.solo_nodes;
            builder_steps = work.Work.builder_steps;
          }
  with
  | Combine.Attack_failed msg -> Error (Construction_failed msg)
  | Robust.Budget.Exhausted reason -> Error (Budget_exhausted reason)

let succeeded outcome = not outcome.verdict.Checker.consistent

(** Smallest process count (searched upward from [start] in steps of 2) at
    which the attack succeeds; measured against the paper's 3r^2 + r.

    With [?pool] the upward search evaluates a batch of candidate counts
    per round across the pool's domains and takes the smallest success in
    the batch — the same answer the sequential scan returns, found in
    roughly [1/jobs] of the wall-clock time when successes are rare.

    With [?budget], a candidate whose construction trips the budget
    *before* any smaller candidate succeeded makes the minimum unknowable
    this run, so the scan stops and reports [`Truncated]: reporting a
    larger success as "the minimum" would silently overstate the bound. *)
let minimum_processes_gov ?pool ?budget ?(start = 4) ?(limit = 400) p =
  let batch =
    match pool with None -> 1 | Some pool -> max 1 (2 * Par.Pool.jobs pool)
  in
  let lands m = (m, run ?budget ~processes:m p) in
  let rec verdict_of = function
    | [] -> None
    | (_, Error (Budget_exhausted reason)) :: _ -> Some (`Truncated reason)
    | (c, Ok outcome) :: rest ->
        if succeeded outcome then Some (`Found c) else verdict_of rest
    | (_, (Error (Side_decides_wrong _ | Construction_failed _))) :: rest ->
        verdict_of rest
  in
  let rec go m =
    if m > limit then `Not_found
    else begin
      let candidates =
        List.init batch (fun i -> m + (2 * i))
        |> List.filter (fun c -> c <= limit)
      in
      let landed = Par.map ?pool lands candidates in
      match verdict_of landed with
      | Some v -> v
      | None -> go (m + (2 * batch))
    end
  in
  go start

let minimum_processes ?pool ?start ?limit p =
  match minimum_processes_gov ?pool ?start ?limit p with
  | `Found c -> Some c
  | `Not_found -> None
  | `Truncated _ -> None (* unreachable without a budget *)

(** Run the general attack against a batch of protocols in parallel;
    results in input order, bit-identical for any [?pool] (budget trips
    excepted: deadline/cancellation budgets are best-effort, so which
    protocols report [Budget_exhausted] may vary run to run). *)
let sweep ?pool ?budget ?processes ps =
  Par.map ?pool
    (fun p -> (p.Consensus.Protocol.name, run ?budget ?processes p))
    ps

(** Independent cross-check by exhaustive model checking: search the
    protocol's full execution tree on a small mixed-input instance
    ([processes], split half 0s / half 1s) and report whether a
    consistency or validity violation is reachable within the bounds.
    The spliced adversarial witness above lives at ~3r^2 processes where
    exhaustive search is hopeless; this confirms by an unrelated method
    that the protocol is genuinely attackable at all.  [`Symmetric] dedup
    is sound for any packaged protocol because
    [Consensus.Protocol.initial_config] seeds fingerprints accordingly. *)
let confirm ?budget ?(dedup = `Symmetric) ?(processes = 2) ?(max_depth = 16)
    ?(max_states = 300_000) (p : Consensus.Protocol.t) =
  let half = max 1 (processes / 2) in
  let m = 2 * half in
  let inputs = List.init m (fun pid -> if pid < half then 0 else 1) in
  let config = Consensus.Protocol.initial_config p ~inputs in
  Mc.Explore.search ?budget ~dedup ~max_depth ~max_states ~inputs config
