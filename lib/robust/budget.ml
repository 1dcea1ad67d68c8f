type reason = [ `Depth | `States | `Nodes | `Steps | `Deadline | `Cancelled ]
type completeness = [ `Exhaustive | `Truncated of reason ]

let reason_to_string = function
  | `Depth -> "depth"
  | `States -> "states"
  | `Nodes -> "nodes"
  | `Steps -> "steps"
  | `Deadline -> "deadline"
  | `Cancelled -> "cancelled"

let reason_of_string = function
  | "depth" -> Some `Depth
  | "states" -> Some `States
  | "nodes" -> Some `Nodes
  | "steps" -> Some `Steps
  | "deadline" -> Some `Deadline
  | "cancelled" -> Some `Cancelled
  | _ -> None

let completeness_to_string = function
  | `Exhaustive -> "exhaustive"
  | `Truncated r -> Printf.sprintf "truncated (%s)" (reason_to_string r)

let is_exhaustive = function `Exhaustive -> true | `Truncated _ -> false
let merge a b = match a with `Exhaustive -> b | `Truncated _ -> a

type t = {
  nodes : int option;
  steps : int option;
  deadline : float option;
  cancel : Cancel.t option;
  on_poll : (nodes:int -> steps:int -> unit) option;
}

let unlimited =
  { nodes = None; steps = None; deadline = None; cancel = None; on_poll = None }

let make ?nodes ?steps ?deadline ?cancel ?on_poll () =
  let deadline =
    Option.map (fun d -> Unix.gettimeofday () +. Float.max d 0.) deadline
  in
  { nodes; steps; deadline; cancel; on_poll }

(* [on_poll] participates: an observer-only budget must still get a meter
   (or its hook would never fire).  Matched structurally — polymorphic
   [=] on a closure-carrying option would be a trap for later editors. *)
let is_unlimited t =
  t.nodes = None && t.steps = None && t.deadline = None && t.cancel = None
  && match t.on_poll with None -> true | Some _ -> false

exception Exhausted of reason

module Meter = struct
  type budget = t

  type nonrec t = {
    budget : budget;
    poll_mask : int;
    mutable nodes : int;
    mutable steps : int;
    mutable polls : int;
    mutable tripped : reason option;
  }

  let create ?(poll_every = 512) budget =
    let poll_every = max 1 poll_every in
    (* Round up to a power of two so polling is a single [land]. *)
    let rec pow2 k = if k >= poll_every then k else pow2 (k * 2) in
    {
      budget;
      poll_mask = pow2 1 - 1;
      nodes = 0;
      steps = 0;
      polls = 0;
      tripped = None;
    }

  let nodes t = t.nodes
  let steps t = t.steps
  let polls t = t.polls
  let tripped t = t.tripped

  let trip t r =
    t.tripped <- Some r;
    Some r

  (* Best-effort limits, consulted only on poll boundaries.  A deadline
     trip propagates to the cancel token so that pool siblings that share
     the budget stop claiming chunks instead of each burning until their
     own next poll. *)
  let poll t =
    t.polls <- t.polls + 1;
    (match t.budget.on_poll with
    | Some f -> f ~nodes:t.nodes ~steps:t.steps
    | None -> ());
    match t.budget.cancel with
    | Some c when Cancel.is_set c -> trip t `Cancelled
    | _ -> (
        match t.budget.deadline with
        (* >= not >: a zero (or elapsed) relative deadline must trip on
           the very first poll even when the clock has not advanced past
           the instant [make] stamped — gettimeofday ticks coarsely
           enough for the two reads to coincide. *)
        | Some d when Unix.gettimeofday () >= d ->
            Option.iter Cancel.set t.budget.cancel;
            trip t `Deadline
        | _ -> None)

  let tick_node t =
    match t.tripped with
    | Some r -> Some r
    | None -> (
        match t.budget.nodes with
        | Some limit when t.nodes >= limit -> trip t `Nodes
        | _ -> (
            if t.nodes land t.poll_mask <> 0 then (
              t.nodes <- t.nodes + 1;
              None)
            else
              match poll t with
              | Some r -> Some r
              | None ->
                  t.nodes <- t.nodes + 1;
                  None))

  let tick_step t =
    match t.tripped with
    | Some r -> Some r
    | None -> (
        match t.budget.steps with
        | Some limit when t.steps >= limit -> trip t `Steps
        | _ -> (
            if t.steps land t.poll_mask <> 0 then (
              t.steps <- t.steps + 1;
              None)
            else
              match poll t with
              | Some r -> Some r
              | None ->
                  t.steps <- t.steps + 1;
                  None))

  (* Batch admission: account up to [k] nodes, stopping at the first
     trip.  Campaign-shaped workloads (the fuzzer) admit a whole batch of
     independent tasks with one call, dispatch exactly the admitted
     prefix, and keep the truncation point as deterministic as the
     underlying per-tick checks. *)
  let take_nodes t k =
    let rec go i =
      if i >= k then k
      else match tick_node t with None -> go (i + 1) | Some _ -> i
    in
    go 0

  let guard_node t =
    match tick_node t with None -> () | Some r -> raise (Exhausted r)

  let guard_step t =
    match tick_step t with None -> () | Some r -> raise (Exhausted r)
end
