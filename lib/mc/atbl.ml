(* Arena-backed transposition table for the flat DFS: keys are slab
   slices (object value ids then state ids, the sid slice sorted under
   [`Symmetric]) stored *contiguously* in append-only arenas — entry
   layout [meta; slot_0 .. slot_{width-1}] — and addressed by an
   open-addressing index of interleaved (hash, entry offset) pairs.

   [meta] is the caller's: one int per entry, 0 when inserted.  A lookup
   costs two cache lines (index pair, then the entry's slots for the
   exact compare — hash equality is never trusted); an insert copies the
   scratch key into the arena tail.  Nothing per entry is a GC object,
   so million-entry sweeps neither allocate per node nor grow major-heap
   mark work.

   The parallel model checker ([Par_explore]) shares one set of arenas,
   one per worker, between many tables (stripes): a worker appends only
   to its own arena, and every access to a table happens under that
   table's lock.  Entries are copies *by construction*, which is the flat
   engine's answer to the key-immutability hazard of sharing live
   arrays. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

(* Entry storage, append-only, written by one domain: chunk [c] holds
   [64 lsl c] entries, so growing appends a chunk instead of copying,
   and an entry's offset — [slot lsl 48 lor c lsl 32 lor word], the
   position of its meta word — stays valid for good.  Chunks are
   bigarrays: the GC never scans them, which matters once a sweep holds
   millions of entries. *)
type arena = {
  slot : int;  (** index in the tables' [arenas] *)
  words : int;  (** per entry: meta + key *)
  mutable chunks : ints array;
  mutable fill : int;  (** words used in the last chunk *)
}

let arena ~width slot = { slot; words = width + 1; chunks = [||]; fill = 0 }

type t = {
  width : int;  (** slots per key *)
  arenas : arena array;  (** entries may live in any of them *)
  mutable idx : int array;
      (** interleaved [hash; offset] pairs, offset -1 = empty *)
  mutable mask : int;  (** index capacity - 1 *)
  mutable shift : int;  (** 63 - log2 of index capacity *)
  mutable size : int;
}

let fib = 0x1E3779B97F4A7C15

let create ?(bits = 10) ?arenas ~width () =
  let cap = 1 lsl bits in
  {
    width;
    arenas = (match arenas with Some a -> a | None -> [| arena ~width 0 |]);
    idx = Array.make (2 * cap) (-1);
    mask = cap - 1;
    shift = 63 - bits;
    size = 0;
  }

let[@inline] chunk t o =
  Array.unsafe_get (Array.unsafe_get t.arenas (o lsr 48)).chunks
    ((o lsr 32) land 0xFFFF)

let low = 0xFFFFFFFF

(* toplevel recursions: local [let rec]s here would allocate closures
   on every lookup *)
let rec eq_slots (chunk : ints) o (key : int array) i =
  i < 0
  || Array1.unsafe_get chunk (o + i) = Array.unsafe_get key i
     && eq_slots chunk o key (i - 1)

let rec probe t hash (key : int array) i =
  let o = Array.unsafe_get t.idx ((2 * i) + 1) in
  if o = -1 then -1
  else if
    Array.unsafe_get t.idx (2 * i) = hash
    && eq_slots (chunk t o) ((o land low) + 1) key (t.width - 1)
  then o
  else probe t hash key ((i + 1) land t.mask)

(* offset of the entry (its meta word), or -1 *)
let find t ~hash key = probe t hash key ((hash * fib) lsr t.shift)

let meta t o = Array1.unsafe_get (chunk t o) (o land low)
let set_meta t o m = Array1.unsafe_set (chunk t o) (o land low) m

let rec ins_slot t i =
  if Array.unsafe_get t.idx ((2 * i) + 1) = -1 then i
  else ins_slot t ((i + 1) land t.mask)

let grow_index t =
  let old = t.idx in
  let cap = t.mask + 1 in
  t.idx <- Array.make (4 * cap) (-1);
  t.mask <- (2 * cap) - 1;
  t.shift <- t.shift - 1;
  for i = 0 to cap - 1 do
    let o = old.((2 * i) + 1) in
    if o >= 0 then begin
      let h = old.(2 * i) in
      let j = ins_slot t ((h * fib) lsr t.shift) in
      t.idx.(2 * j) <- h;
      t.idx.((2 * j) + 1) <- o
    end
  done

(* Append a fresh entry (meta 0 = "in progress": stored depth -1,
   incomplete) to arena [arena] and index it; returns its offset. *)
let insert ?(arena = 0) t ~hash key =
  if 2 * (t.size + 1) > t.mask + 1 then grow_index t;
  let a = t.arenas.(arena) in
  let c = Array.length a.chunks - 1 in
  let c =
    if c >= 0 && a.fill + a.words <= Array1.dim a.chunks.(c) then c
    else begin
      a.chunks <-
        Array.append a.chunks
          [| Array1.create Int C_layout ((64 lsl (c + 1)) * a.words) |];
      a.fill <- 0;
      c + 1
    end
  in
  let chunk = a.chunks.(c) in
  let pos = a.fill in
  chunk.{pos} <- 0;
  for i = 0 to t.width - 1 do
    Array1.unsafe_set chunk (pos + 1 + i) (Array.unsafe_get key i)
  done;
  a.fill <- pos + a.words;
  let o = (a.slot lsl 48) lor (c lsl 32) lor pos in
  let i = ins_slot t ((hash * fib) lsr t.shift) in
  t.idx.(2 * i) <- hash;
  t.idx.((2 * i) + 1) <- o;
  t.size <- t.size + 1;
  o
