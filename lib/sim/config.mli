(** Configurations (Section 2): the value of every shared object plus the
    state of every process, with crash-failure flags and per-process state
    fingerprints (see {!Fingerprint}).  [Run.step] copies a configuration,
    [Run.step_inplace] mutates one its caller owns; the functions below
    copy. *)

type 'a t = {
  optypes : Optype.t array;
  objects : Value.t array;
  procs : 'a Proc.t array;
  halted : bool array;
  fps : Fingerprint.t array;
      (** consumed-history fingerprint per process, maintained by
          [Run.step]; hashes the process state (see [Mc.Explore]) *)
}

(** [make ~optypes ~procs] is the initial configuration: objects at their
    initial values, no process halted, all fingerprints at
    [Fingerprint.initial]. *)
val make : optypes:Optype.t list -> procs:'a Proc.t list -> 'a t

(** [make] with seeded initial fingerprints ([fp_seeds], one int per
    process): seeds distinguish processes whose initial protocol terms
    differ — required for [Mc.Explore]'s [`Symmetric] dedup to be sound
    on non-identical process vectors; see
    [Consensus.Protocol.initial_config]. *)
val make_seeded :
  fp_seeds:int list -> optypes:Optype.t list -> procs:'a Proc.t list -> 'a t

val n_objects : 'a t -> int
val n_procs : 'a t -> int
val copy : 'a t -> 'a t

(** {1 Process status} *)

val decision : 'a t -> int -> 'a option
val is_decided : 'a t -> int -> bool
val is_halted : 'a t -> int -> bool

(** The process's current consumed-history fingerprint. *)
val fingerprint : 'a t -> int -> Fingerprint.t

(** Enabled: neither decided nor crashed. *)
val is_enabled : 'a t -> int -> bool

(** [iter_enabled t f] applies [f] to every enabled pid in ascending
    order, allocating nothing — the model checker's inner loop. *)
val iter_enabled : 'a t -> (int -> unit) -> unit

(** Whether any process is enabled ([not (all_decided t)], allocation-free). *)
val exists_enabled : 'a t -> bool

val enabled_pids : 'a t -> int list

(** Every process decided or halted. *)
val all_decided : 'a t -> bool

val decisions : 'a t -> 'a list

(** {1 Updates (copying)} *)

(** Crash a process: it takes no further steps. *)
val halt : 'a t -> int -> 'a t

(** Append processes, each given its state and fingerprint, with one copy
    of the arrays; returns the new configuration and the first new pid,
    the rest following in order.  Used by the lower-bound adversaries to
    introduce clones (snapshots of existing processes, carrying their
    origins' fingerprints). *)
val add_procs : 'a t -> ('a Proc.t * Fingerprint.t) list -> 'a t * int

(** {1 Poisedness} *)

(** The shared-memory operation the process is poised at, if any (trivial
    or not; see [Lowerbound.Triviality] for the paper's notion). *)
val pending : 'a t -> int -> (int * Op.t) option

(** Enabled processes whose next step applies to the given object. *)
val poised_at : 'a t -> int -> int list

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
