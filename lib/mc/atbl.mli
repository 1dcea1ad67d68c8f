(** The model checker's transposition table: exact int-array keys of a
    fixed width, one caller-defined [meta] int per entry, entries stored
    in append-only arenas outside the GC's scan (see the implementation
    for the layout).  Not thread-safe: a table is used by one domain at a
    time. *)

type arena
(** Entry storage written by one domain; several tables may share a set
    of arenas, as the parallel model checker's stripes do. *)

val arena : width:int -> int -> arena
(** [arena ~width slot] is the arena at index [slot] of the arena array
    it will be passed in. *)

type t

val create : ?bits:int -> ?arenas:arena array -> width:int -> unit -> t
(** An empty table for keys of [width] slots, with an index of [2^bits]
    slots (default 10) to start.  [arenas] defaults to one fresh arena. *)

val find : t -> hash:int -> int array -> int
(** The offset of the entry whose key equals the given one, or [-1].
    [hash] only picks the probe start; keys are compared slot by slot. *)

val meta : t -> int -> int
val set_meta : t -> int -> int -> unit

val insert : ?arena:int -> t -> hash:int -> int array -> int
(** Append a copy of the key, with meta [0], to arena [arena] (default
    0) and index it; returns its offset, valid for the table's life. *)
