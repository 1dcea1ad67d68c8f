(** Operation triviality for the lower-bound machinery on unbounded
    protocol objects: every object type in this repository names its
    trivial operation "read" (plus fetch&add 0); the convention is pinned
    to the exhaustively decided algebra by the classification tests.

    "Poised at R" (Section 3): the process's next step applies a
    nontrivial operation to R. *)

open Sim

val is_trivial : Op.t -> bool
val is_nontrivial : Op.t -> bool

(** The pending nontrivial operation of a process state, if it is poised
    in the paper's sense. *)
val pending_write : 'a Proc.t -> (int * Op.t) option

(** {!pending_write} of a process of the configuration. *)
val poised_write : 'a Config.t -> int -> (int * Op.t) option

(** Enabled processes poised (nontrivially) at the object. *)
val poised_at : 'a Config.t -> int -> int list
