(* Nondeterministic solo termination, made effective.

   The property (Section 2): from every configuration, every process has
   *some* finite solo execution that completes its operation.  The proofs
   use it purely existentially; the executable adversary needs witnesses,
   so we search: depth-first over the process's internal coin outcomes
   (solo applies are deterministic), bounded by path length and total
   nodes.  A protocol for which the search fails within the budget is
   reported as such, never silently treated as terminating.

   A solo run changes only the runner's own state and the objects, so the
   search state is exactly that: the process term and an r-sized object
   array, copied when an operation changes a value.  A node costs O(r),
   not O(n), however many other processes the configuration holds.

   [stop] generalizes the goal, e.g. Lemma 3.4 runs a process "until it has
   decided or is poised at an object in V-bar": pass a predicate that holds
   when the process's pending nontrivial operation lies outside V. *)

open Sim

type 'a found = {
  coins : int list;  (** coin outcomes along the found path, in order *)
  decision : 'a option;  (** [Some v] if the goal state has pid decided *)
  steps : int;  (** solo steps on the found path *)
}

let search ?(max_steps = 2_000) ?(max_nodes = 200_000) ?meter
    ?(stop = fun _proc -> false) ?rng (config : 'a Config.t) ~pid =
  let optypes = config.Config.optypes in
  let nodes = ref 0 in
  (* [meter] is the caller's budget (deadline/cancellation/global step
     cap) layered over the local [max_steps]/[max_nodes] bounds: local
     exhaustion means "no witness found" and the search backtracks, while
     a metered trip means "stop everything" and unwinds the whole
     construction via [Robust.Budget.Exhausted]. *)
  let guard () =
    match meter with
    | None -> ()
    | Some m -> Robust.Budget.Meter.guard_step m
  in
  (* With [rng], coin outcomes at each Choose node are tried in a
     shuffled order instead of 0..n-1: a randomized restart of the same
     complete search.  Different seeds reach different witnesses (and can
     escape pathological corners of the tree); a fixed seed is fully
     deterministic, which is what the parallel seed sweeps rely on. *)
  let outcome_order n =
    match rng with
    | None -> Array.init n Fun.id
    | Some rng ->
        let order = Array.init n Fun.id in
        Rng.shuffle rng order;
        order
  in
  (* rev_coins accumulates outcomes; returns the goal description.
     [objects] is never mutated: an apply that changes a value steps into
     a fresh copy, so every ancestor's array stays valid for
     backtracking. *)
  let rec go proc objects rev_coins steps =
    guard ();
    incr nodes;
    if !nodes > max_nodes || steps > max_steps then None
    else
      match proc with
      | Proc.Decide v ->
          Some { coins = List.rev rev_coins; decision = Some v; steps }
      | _ when stop proc ->
          Some { coins = List.rev rev_coins; decision = None; steps }
      | Proc.Apply { obj; op; k } ->
          let old = objects.(obj) in
          let value, resp = Optype.apply optypes.(obj) old op in
          let objects =
            if value == old then objects
            else begin
              let objects = Array.copy objects in
              objects.(obj) <- value;
              objects
            end
          in
          go (k resp) objects rev_coins (steps + 1)
      | Proc.Choose { n; k } ->
          let order = outcome_order n in
          let rec try_outcome idx =
            if idx >= n then None
            else
              let o = order.(idx) in
              match go (k o) objects (o :: rev_coins) (steps + 1) with
              | Some _ as found -> found
              | None -> try_outcome (idx + 1)
          in
          try_outcome 0
  in
  let found = go config.Config.procs.(pid) config.Config.objects [] 0 in
  Work.add_solo_nodes !nodes;
  found

(** A terminating solo execution (decision goal only). *)
let terminating ?max_steps ?max_nodes ?meter ?rng config ~pid =
  search ?max_steps ?max_nodes ?meter ?rng config ~pid

(** Goal predicate: the process is poised at a nontrivial operation on an
    object outside [inside].  Combine with the implicit decided-goal to
    get Lemma 3.4's "until decided or poised at an object in V-bar". *)
let poised_outside inside proc =
  match Triviality.pending_write proc with
  | Some (obj, _) -> not (List.mem obj inside)
  | None -> false

(** Goal predicate: the process is poised at any nontrivial operation at
    all.  Used to cut a solo execution at its first write (Lemma 3.2). *)
let poised_anywhere proc = Triviality.pending_write proc <> None
