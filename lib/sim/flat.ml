(* A flat, arena-backed configuration: one int slab instead of four
   heap-object arrays.

   Layout of [slab] (all small dense ids from the shared {!Intern} table):

     index            0 .. n_objs-1          n_objs .. n_objs+n_procs-1
     contents         object value ids       per-process state ids

   plus a [halted] byte per process outside the slab (crash flags are not
   part of the transposition key — the closure engine's key omits them
   too, and they are constant within one search).

   Two hashes are maintained incrementally, O(1) per slot write:

   - [hexact]: XOR over slots of [mix (index+1) id] — the [`Exact]
     transposition key hash; order- and slot-sensitive.
   - [hsym]: the same for object slots, but state ids enter *unindexed*
     ([mix 0 sid]) and XOR is commutative, so [hsym] is invariant under
     process permutation — the [`Symmetric] key hash without any per-node
     sort.

   XOR composition makes every write self-inverse: un-writing a slot
   (DFS backtracking) applies the same two mixes again.  Hash equality is
   never trusted: table lookups compare the slab slices themselves
   (sorted for [`Symmetric]).

   The per-(slot, id) contributions are memoized Zobrist-style in [z]:
   one row of [width + 1] precomputed mixes per id ([mix 0 id] first,
   then [mix (i+1) id] per slot), lazily extended as the intern table
   grows.  A slot write then costs four array loads from two rows
   instead of four three-multiply SplitMix chains — the chains, not the
   table probes, dominated dedup'd sweeps.  The cached values ARE
   [Fingerprint.mix] outputs, so hashes are bit-identical to the
   uncached definition.

   Clone is a blit of one int array (plus the crash bytes); the model
   checker does not even clone — it steps in place and undoes
   ({!Flat_run.step_det} + the undo discipline in [Mc.Explore]). *)

type 'a t = {
  rt : 'a Intern.t;
  n_objs : int;
  n_procs : int;
  hashed : bool;
      (** maintain [hexact]/[hsym] on writes; off for callers that never
          consult a transposition table (fuzz executors, dedup-free DFS),
          saving the mix calls on every slot write *)
  slab : int array;
  halted : Bytes.t;
  mutable z : int array;
      (** Zobrist rows: [z.(id * zw + 0) = mix 0 id] (the [hsym]
          contribution of state id [id]) and [z.(id * zw + 1 + i) =
          mix (i + 1) id] (slot [i]'s contribution to [hexact]) *)
  mutable z_ids : int;  (** ids covered by [z] *)
  mutable hexact : int;
  mutable hsym : int;
  mutable enabled : int;  (** processes neither decided nor halted *)
}

let slot_hash i id = Fingerprint.mix (i + 1) id
let sym_hash sid = Fingerprint.mix 0 sid

(* row width: one sym contribution + one per slab slot *)
let zw t = t.n_objs + t.n_procs + 1

let grow_z t id =
  let w = zw t in
  let cap = max (2 * t.z_ids) (id + 1) in
  let z = Array.make (cap * w) 0 in
  Array.blit t.z 0 z 0 (t.z_ids * w);
  for id = t.z_ids to cap - 1 do
    for i = 0 to w - 1 do
      z.((id * w) + i) <- Fingerprint.mix i id
    done
  done;
  t.z <- z;
  t.z_ids <- cap

(* base index of [id]'s row, growing the cache on first sight *)
let zrow t id =
  if id >= t.z_ids then grow_z t id;
  id * zw t

type roots = Per_slot | By_fp

(** Flatten a closure configuration.  [~roots] decides root-state
    sharing: [Per_slot] gives every process its own root id (always
    sound, the [`Exact]/[`Off] engine default); [By_fp] shares roots
    between processes whose current fingerprints are equal — the
    assertion [Config.make_seeded] encodes and [`Symmetric] dedup
    requires (equal fingerprint seeds ⇒ equal protocol terms). *)
let of_config ?rt ?(hashed = true) ~roots (config : 'a Config.t) =
  let rt = match rt with Some rt -> rt | None -> Intern.of_config config in
  let n_objs = Config.n_objects config in
  let n_procs = Config.n_procs config in
  let slab = Array.make (n_objs + n_procs) 0 in
  let halted = Bytes.make n_procs '\000' in
  let t =
    {
      rt;
      n_objs;
      n_procs;
      hashed;
      slab;
      halted;
      z = [||];
      z_ids = 0;
      hexact = 0;
      hsym = 0;
      enabled = 0;
    }
  in
  for i = 0 to n_objs - 1 do
    slab.(i) <- Intern.value_id rt config.Config.objects.(i)
  done;
  for p = 0 to n_procs - 1 do
    let fp = config.Config.fps.(p) in
    let proc = config.Config.procs.(p) in
    let sid =
      match roots with
      | Per_slot -> Intern.root rt ~key:(-1 - p) ~fp proc
      | By_fp -> Intern.root rt ~key:fp ~fp proc
    in
    slab.(n_objs + p) <- sid;
    if config.Config.halted.(p) then Bytes.set halted p '\001'
    else if not (Intern.is_decided rt sid) then t.enabled <- t.enabled + 1
  done;
  if hashed then begin
    let hexact = ref 0 and hsym = ref 0 in
    for i = 0 to n_objs + n_procs - 1 do
      hexact := !hexact lxor slot_hash i slab.(i);
      hsym :=
        !hsym
        lxor (if i < n_objs then slot_hash i slab.(i) else sym_hash slab.(i))
    done;
    t.hexact <- !hexact;
    t.hsym <- !hsym
  end;
  t

let rt t = t.rt
let n_objs t = t.n_objs
let n_procs t = t.n_procs
(* unchecked slab loads/stores: object indices are validated once at
   intern time ([Intern.intern_state]) and pids are loop indices bounded
   by [n_procs] in every caller *)
let obj_vid t i = Array.unsafe_get t.slab i
let sid t p = Array.unsafe_get t.slab (t.n_objs + p)
let hexact t = t.hexact
let hsym t = t.hsym
let is_halted t p = Bytes.unsafe_get t.halted p <> '\000'
let is_decided t p = Intern.is_decided t.rt (sid t p)
let is_enabled t p = (not (is_decided t p)) && not (is_halted t p)
let enabled_count t = t.enabled
let all_decided t = t.enabled = 0
let decision t p = Intern.decision t.rt (sid t p)
let fingerprint t p = Intern.fp t.rt (sid t p)

let decisions t =
  let acc = ref [] in
  for p = t.n_procs - 1 downto 0 do
    match decision t p with Some v -> acc := v :: !acc | None -> ()
  done;
  !acc

let slab_copy t ~into = Array.blit t.slab 0 into 0 (Array.length t.slab)

let clone t =
  {
    t with
    slab = Array.copy t.slab;
    halted = Bytes.copy t.halted;
  }

(** Overwrite [dst] with [src]'s state: the per-run reset of the fuzz
    loop, two blits and three scalar writes, no allocation. *)
let blit ~src ~dst =
  Array.blit src.slab 0 dst.slab 0 (Array.length src.slab);
  Bytes.blit src.halted 0 dst.halted 0 (Bytes.length src.halted);
  dst.hexact <- src.hexact;
  dst.hsym <- src.hsym;
  dst.enabled <- src.enabled

(* -- slot writes (hashes maintained; self-inverse under repetition) --- *)

let write_obj t i vid =
  let old = Array.unsafe_get t.slab i in
  if old <> vid then begin
    if t.hashed then begin
      let ro = zrow t old and rn = zrow t vid in
      let z = t.z in
      (* object slots enter both hashes slot-indexed: one shared delta *)
      let d =
        Array.unsafe_get z (ro + 1 + i) lxor Array.unsafe_get z (rn + 1 + i)
      in
      t.hexact <- t.hexact lxor d;
      t.hsym <- t.hsym lxor d
    end;
    Array.unsafe_set t.slab i vid
  end

let write_sid t p sid' =
  let i = t.n_objs + p in
  let old = Array.unsafe_get t.slab i in
  if old <> sid' then begin
    if t.hashed then begin
      let ro = zrow t old and rn = zrow t sid' in
      let z = t.z in
      t.hexact <-
        t.hexact
        lxor Array.unsafe_get z (ro + 1 + i)
        lxor Array.unsafe_get z (rn + 1 + i);
      t.hsym <- t.hsym lxor Array.unsafe_get z ro lxor Array.unsafe_get z rn
    end;
    Array.unsafe_set t.slab i sid'
  end

(** Overwrite every slot with [ids] (a {!slab_copy} image over this
    slab's intern table) and recount the enabled processes. *)
let load t ids =
  for i = 0 to t.n_objs - 1 do
    write_obj t i ids.(i)
  done;
  t.enabled <- 0;
  for p = 0 to t.n_procs - 1 do
    write_sid t p ids.(t.n_objs + p);
    if is_enabled t p then t.enabled <- t.enabled + 1
  done

(** Crash process [p] in place (no further steps); mirrors
    [Run.exec_with_crashes]'s in-place halt. *)
let halt t p =
  if not (is_halted t p) then begin
    if not (is_decided t p) then t.enabled <- t.enabled - 1;
    Bytes.set t.halted p '\001'
  end

let note_decided t p = if not (is_halted t p) then t.enabled <- t.enabled - 1
let note_undecided t p = if not (is_halted t p) then t.enabled <- t.enabled + 1

let pp pp_decision ppf t =
  Fmt.pf ppf "@[<v>objects: %a@,procs: %a@]"
    Fmt.(list ~sep:sp Value.pp_compact)
    (List.init t.n_objs (fun i -> Intern.value t.rt (obj_vid t i)))
    Fmt.(list ~sep:sp (Proc.pp pp_decision))
    (List.init t.n_procs (fun p -> Intern.proc t.rt (sid t p)))
