(** Work counters of the lower-bound constructions: solo-search nodes and
    builder steps.  They accumulate per domain; a construction runs on one
    domain, so the difference of two readings around it is exactly its own
    work, whatever other domains do meanwhile.  The entry points
    ({!Attack.run}, {!General_attack.run}) report it in their outcomes. *)

type t = {
  solo_nodes : int;  (** nodes visited by {!Solo.search} *)
  builder_steps : int;  (** steps taken through {!Builder.step} *)
}

(** [measure f] runs [f] and returns its result with the work it did on
    this domain. *)
val measure : (unit -> 'a) -> 'a * t

(** {1 Recording}

    Called by {!Solo.search} and {!Builder.step}. *)

val add_solo_nodes : int -> unit
val add_builder_step : unit -> unit
