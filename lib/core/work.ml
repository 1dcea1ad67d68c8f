(* Per-domain work counters of the lower-bound constructions (see the
   interface).  Plain mutable fields behind a domain-local key: the solo
   searches and builder steps they count are the construction's inner
   loops, and [Par] may run several constructions at once, one per
   domain. *)

type t = { solo_nodes : int; builder_steps : int }
type acc = { mutable nodes : int; mutable steps : int }

let key = Domain.DLS.new_key (fun () -> { nodes = 0; steps = 0 })

let add_solo_nodes k =
  let a = Domain.DLS.get key in
  a.nodes <- a.nodes + k

let add_builder_step () =
  let a = Domain.DLS.get key in
  a.steps <- a.steps + 1

let measure f =
  let a = Domain.DLS.get key in
  let nodes0 = a.nodes and steps0 = a.steps in
  let x = f () in
  (x, { solo_nodes = a.nodes - nodes0; builder_steps = a.steps - steps0 })
