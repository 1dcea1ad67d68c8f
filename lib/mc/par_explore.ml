(* Shared-table parallel model checking (DESIGN.md §4b).

   Every worker domain runs the flat undo-cell DFS of [Explore] on its
   own slab and its own intern table, so stepping never synchronizes.
   What the workers share:

   - {b One exact transposition table}, striped: [n_stripes] [Atbl]s, each
     behind its own [Mutex] and growing on its own.  Keys are slab images
     in {e global} ids (below), the sid slice sorted under [`Symmetric];
     hashes only pick a stripe and a probe start, the compare is exact.
   - {b Global ids.}  Private slab ids number states in the order one
     domain met them, so they mean nothing to another domain.  [grt] is
     one more intern table, touched only under [glock], that gives every
     state reached by any worker one id: a private state is resolved
     through its parent link ([Intern.parent]/[Intern.input]) with
     [Intern.child] — the consumed-history identity, no fingerprint
     involved — and each worker caches the private→global map in flat
     arrays, so only first sightings lock.
   - {b Work.}  An idle worker posts a request on a busy worker's
     [signal]; the busy worker answers at its next node entry by handing
     over half of the unexplored siblings at its {e shallowest} level
     that has any: that node's slab in global ids plus its choice-path
     prefix (for witnesses).  The thief imports the slab ([Intern.proc]
     of each global state, interned afresh) and expands just those
     siblings; nothing is replayed from the root.

   The claim/skip rule.  A table entry records the deepest finished
   horizon ([stored]) with [complete] (no cut and nothing handed off
   below it) and [cut] (a real depth/state cut below it) flags, plus the
   worker currently expanding it and at which horizon ([holder],
   [claimed]).  A visit at remaining depth [rd] is a hit when the entry
   is complete, or stored >= rd (reporting a [`Depth] cut only when
   [cut] is set); a {e claimed skip} when another worker holds it at
   claimed >= rd; otherwise a miss that expands it (taking the claim
   unless the visitor already holds it, as an ancestor).  A claimed skip,
   a hand-off, a state-cap cut and a hit on an incomplete entry without
   [cut] make the enclosing entries incomplete but not cut: the subtree
   is covered by the holder, which reports its own cuts (or, after the
   cap, by nobody, which [`States] already says), so marking the
   visitor's ancestors as cut would make later hits on them report a
   [`Depth] truncation that did not happen — yet they must not be
   complete either, or a later, deeper visit would trust a subtree
   nobody has finished.

   Verdicts.  Any violation stops every worker, and the sequential
   [Explore.search] re-finds the canonical witness (its first violation
   in DFS preorder) whose whole result is returned.  Otherwise
   completeness is [`Depth] if any worker cut on depth, else [`States] if
   the state cap was hit, else [`Exhaustive]: in a sequential DFS every
   node after the cap is cut on [`States] before the depth test, so any
   depth cut precedes the cap and this is also the sequential rule.  The
   cap is one global allowance handed out in chunks, so [visited]
   overshoots it only by each worker's unwind.  One exception to the
   witness rule: when the re-run finds nothing within its own state cap
   or clock, the workers' violating execution is returned, so a parallel
   run can report a (real) violation that the sequential run with the
   same flags misses. *)

open Sim

type item = {
  ids : int array;  (** the node's slab in global ids *)
  depth : int;
  pids : int array;  (** root-to-node choices, [depth] long *)
  outs : int array;
  lo : int;  (** expand the moves [m] with [lo < m <= hi] *)
  hi : int;
}

type answer = Pending | Refused | Work of item

(* [signal] values besides a thief's index *)
let idle = -1
let taken = -2
let halt = -3

(* a move's rank in the DFS child order: pid, then coin outcome *)
let[@inline] move pid outcome = (pid lsl 24) lor outcome

(* Entry meta: complete, cut, holder (worker + 1, 0 = none), claimed
   horizon, stored horizon + 1.  A fresh [Atbl] entry (meta 0) is
   absent-like: nothing stored, nobody holding. *)
let comp_bit = 1
let cut_bit = 2
let holder m = (m lsr 2) land 0x3FF
let claimed m = (m lsr 12) land 0xFFFFF
let stored m = (m lsr 32) - 1
let max_jobs = 0x3FF
let max_horizon = 0xFFFFF

(* table stripes, a power of two *)
let n_stripes = 256

let with_claim m ~holder ~rd =
  m land lnot (0x3FFFFFFF lsl 2) lor (holder lsl 2) lor (rd lsl 12)

(* Fold one finished expansion at horizon [rd] into [m]. *)
let finish m ~rd ~cut ~lost ~release =
  let sd = stored m in
  let was_cut = m land cut_bit <> 0 in
  let comp = m land comp_bit <> 0 || ((not cut) && not lost) in
  let cut = if rd > sd then cut else if rd < sd then was_cut else cut || was_cut in
  let claim = if release then 0 else m land (0x3FFFFFFF lsl 2) in
  ((max sd rd + 1) lsl 32)
  lor claim
  lor (if cut then cut_bit else 0)
  lor if comp then comp_bit else 0

type 'a shared = {
  jobs : int;
  config : 'a Config.t;
  inputs : 'a list;
  dedup : Explore.dedup;
  max_depth : int;
  grt : 'a Intern.t;  (** global ids; only under [glock] *)
  glock : Mutex.t;
  groots : int array;  (** slot -> global root id *)
  stripes : (Mutex.t * Atbl.t) array;
  signal : int Atomic.t array;
  mail : answer Atomic.t array;
  active : int Atomic.t;  (** workers holding work, including items in flight *)
  quota : int Atomic.t;  (** unclaimed part of [max_states] *)
  capped : bool Atomic.t;
  stopped : bool Atomic.t;
  trip : Robust.Budget.reason option Atomic.t;
  found : ([ `Inconsistent | `Invalid ] * (int * int) list) option Atomic.t;
  failure : exn option Atomic.t;
}

(* Per-worker tallies, merged on the caller after the join. *)
type tally = {
  visited : int;
  leaves : int;
  hits : int;
  misses : int;
  max_depth_seen : int;
  depth_cut : bool;
  states_cut : bool;
  steals : int;
  claimed_skips : int;
  contended : int;
  polls : int;
}

let stop_all sh =
  Atomic.set sh.stopped true;
  Array.iter (fun s -> Atomic.set s halt) sh.signal

(* grow-on-write int map, -1 = unknown *)
let[@inline] get m i =
  let a = !m in
  if i >= 0 && i < Array.length a then Array.unsafe_get a i else -1

let set m i v =
  let a = !m in
  if i >= Array.length a then begin
    let a' = Array.make (max (2 * Array.length a) (i + 1)) (-1) in
    Array.blit a 0 a' 0 (Array.length a);
    m := a'
  end;
  !m.(i) <- v

let worker sh ~budget w =
  let me = w + 1 in
  let symmetric = sh.dedup = `Symmetric in
  let dedup = sh.dedup <> `Off in
  let flat =
    Flat.of_config ~hashed:false
      ~rt:(Intern.of_config sh.config)
      ~roots:(if symmetric then Flat.By_fp else Flat.Per_slot)
      sh.config
  in
  let rt = Flat.rt flat in
  let n_objs = Flat.n_objs flat and n_procs = Flat.n_procs flat in
  let width = n_objs + n_procs in
  let max_depth = sh.max_depth in
  let signal = sh.signal.(w) and mail = sh.mail.(w) in
  (* private <-> global id maps *)
  let smap = ref (Array.make 256 (-1)) and rsmap = ref (Array.make 256 (-1)) in
  let vmap = ref (Array.make 64 (-1)) and rvmap = ref (Array.make 64 (-1)) in
  for p = 0 to n_procs - 1 do
    set smap (Flat.sid flat p) sh.groots.(p);
    set rsmap sh.groots.(p) (Flat.sid flat p)
  done;
  let locked f =
    Mutex.lock sh.glock;
    Fun.protect ~finally:(fun () -> Mutex.unlock sh.glock) f
  in
  let gvid v =
    let g = get vmap v in
    if g >= 0 then g
    else begin
      let value = Intern.value rt v in
      let g = locked (fun () -> Intern.value_id sh.grt value) in
      set vmap v g;
      if get rvmap g < 0 then set rvmap g v;
      g
    end
  in
  let rec gsid s =
    let g = get smap s in
    if g >= 0 then g
    else begin
      let parent = Intern.parent rt s in
      let gp = gsid parent in
      let input = Intern.input rt s in
      let input =
        if Intern.code rt parent land 3 = Intern.tag_apply then gvid input
        else input
      in
      let g = locked (fun () -> Intern.child sh.grt ~sid:gp ~input) in
      set smap s g;
      if get rsmap g < 0 then set rsmap g s;
      g
    end
  in
  let pvid g =
    let v = get rvmap g in
    if v >= 0 then v
    else begin
      let v = Intern.value_id rt (locked (fun () -> Intern.value sh.grt g)) in
      set rvmap g v;
      if get vmap v < 0 then set vmap v g;
      v
    end
  in
  let psid g =
    let s = get rsmap g in
    if s >= 0 then s
    else begin
      let proc, fp = locked (fun () -> (Intern.proc sh.grt g, Intern.fp sh.grt g)) in
      let s = Intern.root_fresh rt ~fp proc in
      set rsmap g s;
      set smap s g;
      s
    end
  in
  (* the transposition key: the slab in global ids, one reused scratch *)
  let key = Array.make width 0 in
  let fill_key () =
    for i = 0 to n_objs - 1 do
      let v = Flat.obj_vid flat i in
      let g = get vmap v in
      Array.unsafe_set key i (if g >= 0 then g else gvid v)
    done;
    for p = 0 to n_procs - 1 do
      let s = Flat.sid flat p in
      let g = get smap s in
      Array.unsafe_set key (n_objs + p) (if g >= 0 then g else gsid s)
    done;
    if symmetric then
      for p = n_objs + 1 to width - 1 do
        let v = Array.unsafe_get key p in
        let j = ref (p - 1) in
        while !j >= n_objs && Array.unsafe_get key !j > v do
          Array.unsafe_set key (!j + 1) (Array.unsafe_get key !j);
          decr j
        done;
        Array.unsafe_set key (!j + 1) v
      done;
    let h = ref width in
    for i = 0 to width - 1 do
      h := (!h lxor Array.unsafe_get key i) * 0x100000001B3
    done;
    Fingerprint.mix !h 0
  in
  let meter =
    match budget with
    | Some b when not (Robust.Budget.is_unlimited b) ->
        Some (Robust.Budget.Meter.create b)
    | _ -> None
  in
  let depth_slots = max 1 (max_depth + 1) in
  let path_pid = Array.make depth_slots 0 and path_out = Array.make depth_slots 0 in
  (* undo cells per level, readable by [donate] *)
  let und_obj = Array.make depth_slots (-1) in
  let und_vid = Array.make depth_slots 0 in
  let und_sid = Array.make depth_slots 0 in
  let limit = Array.make depth_slots max_int in
  let base = ref 0 in
  let visited = ref 0 and leaves = ref 0 and hits = ref 0 and misses = ref 0 in
  let max_seen = ref 0 and depth_cut = ref false and states_cut = ref false in
  let steals = ref 0 and claimed_skips = ref 0 and contended = ref 0 in
  (* depth-cut events and other incomplete (hand-off, skip, state-cap)
     events so far: an expansion is complete when neither moved, and cut
     when [trunc] moved *)
  let trunc = ref 0 and pend = ref 0 in
  let quota_left = ref 0 in
  let exception Halt in
  let violation kind ~depth =
    let path = List.init depth (fun d -> (path_pid.(d), path_out.(d))) in
    ignore (Atomic.compare_and_set sh.found None (Some (kind, path)));
    stop_all sh;
    raise Halt
  in
  let rec refill () =
    let r = Atomic.get sh.quota in
    if r <= 0 then begin
      Atomic.set sh.capped true;
      false
    end
    else
      let c = max 1 (min 1024 (r / (4 * sh.jobs))) in
      if Atomic.compare_and_set sh.quota r (r - c) then begin
        quota_left := c - 1;
        true
      end
      else refill ()
  in
  let return_quota () =
    if !quota_left > 0 then begin
      ignore (Atomic.fetch_and_add sh.quota !quota_left);
      quota_left := 0
    end
  in
  let lock m =
    if not (Mutex.try_lock m) then begin
      incr contended;
      Mutex.lock m
    end
  in
  let undo_level ids l =
    ids.(n_objs + path_pid.(l)) <- und_sid.(l);
    if und_obj.(l) >= 0 then ids.(und_obj.(l)) <- und_vid.(l)
  in
  (* moves of the level-[l] node [ids] still ahead of its loop *)
  let remaining ids l =
    let cur = move path_pid.(l) path_out.(l) in
    let acc = ref [] in
    for pid = n_procs - 1 downto 0 do
      if not (Flat.is_halted flat pid) then begin
        let code = Intern.code rt ids.(n_objs + pid) in
        let n =
          if code land 3 = Intern.tag_apply then 1
          else if code land 3 = Intern.tag_choose then code lsr 2
          else 0
        in
        for outcome = n - 1 downto 0 do
          let m = move pid outcome in
          if m > cur && m <= limit.(l) then acc := m :: !acc
        done
      end
    done;
    !acc
  in
  (* Hand half of the shallowest level's remaining siblings to a thief. *)
  let donate depth =
    let ids = Array.make width 0 in
    Flat.slab_copy flat ~into:ids;
    let best = ref (-1) in
    for l = depth - 1 downto !base do
      undo_level ids l;
      if remaining ids l <> [] then best := l
    done;
    if !best < 0 then Refused
    else begin
      let l = !best in
      Flat.slab_copy flat ~into:ids;
      for l' = depth - 1 downto l do
        undo_level ids l'
      done;
      let moves = remaining ids l in
      let k = List.length moves in
      let keep =
        if k >= 2 then List.nth moves ((k / 2) - 1)
        else move path_pid.(l) path_out.(l)
      in
      let item =
        {
          ids =
            Array.init width (fun i ->
                if i < n_objs then gvid ids.(i) else gsid ids.(i));
          depth = l;
          pids = Array.sub path_pid 0 l;
          outs = Array.sub path_out 0 l;
          lo = keep;
          hi = limit.(l);
        }
      in
      limit.(l) <- keep;
      incr pend;
      Atomic.incr sh.active;
      Work item
    end
  in
  (* answer a thief's pending request, if any *)
  let answer reply =
    let t = Atomic.get signal in
    if t >= 0 && Atomic.compare_and_set signal t taken then begin
      Atomic.set sh.mail.(t) (reply ());
      ignore (Atomic.compare_and_set signal taken idle)
    end
  in
  let poll depth =
    if Atomic.get sh.stopped then raise Halt;
    answer (fun () -> if Atomic.get sh.capped then Refused else donate depth)
  in
  let rec go distinct depth =
    if Atomic.get signal <> idle then poll depth;
    (match meter with
    | None -> ()
    | Some m -> (
        match Robust.Budget.Meter.tick_node m with
        | None -> ()
        | Some r ->
            ignore (Atomic.compare_and_set sh.trip None (Some r));
            stop_all sh;
            raise Halt));
    incr visited;
    if depth > !max_seen then max_seen := depth;
    if not (!quota_left > 0 && (decr quota_left; true) || refill ()) then begin
      states_cut := true;
      incr pend
    end
    else if Flat.enabled_count flat = 0 then incr leaves
    else if depth >= max_depth then begin
      depth_cut := true;
      incr trunc
    end
    else if not dedup then expand distinct depth (-1) max_int
    else probe distinct depth
  and probe distinct depth =
    let rd = max_depth - depth in
    let hash = fill_key () in
    let mutex, tbl = sh.stripes.(hash land (n_stripes - 1)) in
    lock mutex;
    let o = Atbl.find tbl ~hash key in
    let m = if o >= 0 then Atbl.meta tbl o else 0 in
    if m land comp_bit <> 0 then begin
      Mutex.unlock mutex;
      incr hits
    end
    else if stored m >= rd then begin
      Mutex.unlock mutex;
      incr hits;
      if m land cut_bit <> 0 then begin
        depth_cut := true;
        incr trunc
      end
      else incr pend
    end
    else if holder m <> 0 && holder m <> me && claimed m >= rd then begin
      Mutex.unlock mutex;
      incr claimed_skips;
      incr pend
    end
    else begin
      incr misses;
      let o = if o >= 0 then o else Atbl.insert ~arena:w tbl ~hash key in
      let owner = holder m <> me in
      if owner then Atbl.set_meta tbl o (with_claim m ~holder:me ~rd);
      Mutex.unlock mutex;
      let trunc0 = !trunc and pend0 = !pend in
      expand distinct depth (-1) max_int;
      lock mutex;
      let m = Atbl.meta tbl o in
      Atbl.set_meta tbl o
        (finish m ~rd ~cut:(!trunc <> trunc0) ~lost:(!pend <> pend0)
           ~release:(owner && holder m = me));
      Mutex.unlock mutex
    end
  and expand distinct depth lo hi =
    limit.(depth) <- hi;
    for pid = 0 to n_procs - 1 do
      if not (Flat.is_halted flat pid) then begin
        let sid0 = Flat.sid flat pid in
        let code = Intern.code rt sid0 in
        let tag = code land 3 in
        if tag = Intern.tag_apply then begin
          let m = move pid 0 in
          if m > lo && m <= limit.(depth) then begin
            let obj = code lsr 2 in
            let vid0 = Flat.obj_vid flat obj in
            let packed = Intern.apply_packed rt ~sid:sid0 ~vid:vid0 in
            let sid' = Intern.sid_of packed in
            und_obj.(depth) <- obj;
            und_vid.(depth) <- vid0;
            und_sid.(depth) <- sid0;
            Flat.write_obj flat obj (Intern.vid_of packed);
            Flat.write_sid flat pid sid';
            enter distinct depth pid 0 sid';
            Flat.write_sid flat pid sid0;
            Flat.write_obj flat obj vid0
          end
        end
        else if tag = Intern.tag_choose then
          for outcome = 0 to (code lsr 2) - 1 do
            let m = move pid outcome in
            if m > lo && m <= limit.(depth) then begin
              let sid' = Intern.choose rt ~sid:sid0 ~outcome in
              und_obj.(depth) <- -1;
              und_sid.(depth) <- sid0;
              Flat.write_sid flat pid sid';
              enter distinct depth pid outcome sid';
              Flat.write_sid flat pid sid0
            end
          done
      end
    done
  and enter distinct depth pid outcome sid' =
    path_pid.(depth) <- pid;
    path_out.(depth) <- outcome;
    let decided = Intern.is_decided rt sid' in
    if decided then Flat.note_decided flat pid;
    let distinct' =
      if not decided then distinct
      else
        match Intern.decision rt sid' with
        | None -> assert false
        | Some v ->
            if List.mem v distinct then distinct
            else if distinct <> [] then violation `Inconsistent ~depth:(depth + 1)
            else if not (List.mem v sh.inputs) then
              violation `Invalid ~depth:(depth + 1)
            else v :: distinct
    in
    go distinct' (depth + 1);
    if decided then Flat.note_undecided flat pid
  in
  let run_item it =
    base := it.depth;
    Array.blit it.pids 0 path_pid 0 it.depth;
    Array.blit it.outs 0 path_out 0 it.depth;
    Flat.load flat
      (Array.init width (fun i ->
           if i < n_objs then pvid it.ids.(i) else psid it.ids.(i)));
    expand
      (List.sort_uniq compare (Flat.decisions flat))
      it.depth it.lo it.hi
  in
  let run f =
    (try f () with Halt -> ());
    return_quota ();
    Atomic.decr sh.active
  in
  (* while idle, refuse whoever asks *)
  let refuse () = answer (fun () -> Refused) in
  let rec await v =
    match Atomic.get mail with
    | Pending ->
        refuse ();
        if Atomic.get sh.stopped then Refused
        else if
          Atomic.get sh.active = 0
          && Atomic.compare_and_set sh.signal.(v) w idle
        then Refused
        else begin
          Domain.cpu_relax ();
          await v
        end
    | a -> a
  in
  let rec steal v backoff =
    refuse ();
    if not (Atomic.get sh.stopped || Atomic.get sh.active = 0) then begin
      let v = if v mod sh.jobs = w then v + 1 else v in
      let v = v mod sh.jobs in
      Atomic.set mail Pending;
      let reply =
        if Atomic.compare_and_set sh.signal.(v) idle w then await v else Refused
      in
      match reply with
      | Work it ->
          incr steals;
          run (fun () -> run_item it);
          steal v 16
      | Pending | Refused ->
          for _ = 1 to backoff do
            Domain.cpu_relax ()
          done;
          steal (v + 1) (min 4096 (2 * backoff))
    end
  in
  if w = 0 then
    run (fun () -> go (List.sort_uniq compare (Config.decisions sh.config)) 0);
  steal (w + 1) 16;
  {
    visited = !visited;
    leaves = !leaves;
    hits = !hits;
    misses = !misses;
    max_depth_seen = !max_seen;
    depth_cut = !depth_cut;
    states_cut = !states_cut;
    steals = !steals;
    claimed_skips = !claimed_skips;
    contended = !contended;
    polls = (match meter with Some m -> Robust.Budget.Meter.polls m | None -> 0);
  }

let search_shared ?obs ~pool ?budget ~dedup ~max_depth ~max_states ~inputs
    config =
  let jobs = Par.Pool.jobs pool in
  let referee () =
    (* canonical witness: the sequential search's first violation, under
       the caller's clock and cancellation *)
    Explore.search
      ?budget:
        (Option.map
           (fun b -> { b with Robust.Budget.nodes = None; steps = None })
           budget)
      ~dedup ~max_depth ~max_states ~inputs config
  in
  let root_values = List.sort_uniq compare (Config.decisions config) in
  if
    List.length root_values > 1
    || not (List.for_all (fun v -> List.mem v inputs) root_values)
  then Explore.record_result obs (referee ())
  else begin
    let symmetric = dedup = `Symmetric in
    let groot =
      Flat.of_config ~hashed:false
        ~roots:(if symmetric then Flat.By_fp else Flat.Per_slot)
        config
    in
    let width = Flat.n_objs groot + Flat.n_procs groot in
    let sh =
      {
        jobs;
        config;
        inputs;
        dedup;
        max_depth;
        grt = Flat.rt groot;
        glock = Mutex.create ();
        groots = Array.init (Flat.n_procs groot) (Flat.sid groot);
        stripes =
          (if dedup = `Off then [||]
           else
             let arenas = Array.init jobs (Atbl.arena ~width) in
             Array.init n_stripes (fun _ ->
                 (Mutex.create (), Atbl.create ~bits:8 ~arenas ~width ())));
        signal = Array.init jobs (fun _ -> Atomic.make idle);
        mail = Array.init jobs (fun _ -> Atomic.make Pending);
        active = Atomic.make 1;
        quota = Atomic.make max_states;
        capped = Atomic.make false;
        stopped = Atomic.make false;
        trip = Atomic.make None;
        found = Atomic.make None;
        failure = Atomic.make None;
      }
    in
    let tallies = Array.make jobs None in
    Par.Pool.for_ pool ~n:jobs (fun w ->
        (* a raising worker stops the others, or they would wait for its
           work forever *)
        match worker sh ~budget w with
        | t -> tallies.(w) <- Some t
        | exception e ->
            ignore (Atomic.compare_and_set sh.failure None (Some e));
            stop_all sh);
    (match Atomic.get sh.failure with Some e -> raise e | None -> ());
    let tallies = Array.to_list (Array.map Option.get tallies) in
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
    Obs.add obs "mc/par/steals" (sum (fun t -> t.steals));
    Obs.add obs "mc/par/claimed-skips" (sum (fun t -> t.claimed_skips));
    Obs.add obs "mc/par/lock-contended" (sum (fun t -> t.contended));
    Obs.add obs "budget/polls" (sum (fun t -> t.polls));
    let completeness =
      match Atomic.get sh.trip with
      | Some r -> `Truncated r
      | None ->
          if List.exists (fun t -> t.depth_cut) tallies then `Truncated `Depth
          else if List.exists (fun t -> t.states_cut) tallies then
            `Truncated `States
          else `Exhaustive
    in
    let merged =
      {
        Explore.violation = None;
        visited = sum (fun t -> t.visited);
        leaves = sum (fun t -> t.leaves);
        truncated = completeness <> `Exhaustive;
        completeness;
        max_depth_seen =
          List.fold_left (fun acc t -> max acc t.max_depth_seen) 0 tallies;
        table_hits = sum (fun t -> t.hits);
        table_misses = sum (fun t -> t.misses);
      }
    in
    let result =
      match Atomic.get sh.found with
      | None -> merged
      | Some (kind, path) -> (
          let r = referee () in
          match r.Explore.violation with
          | Some _ -> r
          | None ->
              (* the referee ran out of clock or state cap first: a real
                 violating execution beats its "none seen" *)
              {
                merged with
                Explore.violation = Some (Explore.witness config kind path);
              })
    in
    Explore.record_result obs result
  end

let search ?obs ?pool ?budget ?(dedup = `Off) ?(max_depth = 60)
    ?(max_states = 2_000_000) ?(state = `Flat) ~inputs config =
  match pool with
  | Some pool
    when Par.Pool.jobs pool >= 2
         && Par.Pool.jobs pool <= max_jobs
         && state = `Flat
         && max_depth < max_horizon
         && Option.fold ~none:true
              ~some:(fun b -> b.Robust.Budget.nodes = None)
              budget ->
      Obs.span obs "mc/search" @@ fun () ->
      search_shared ?obs ~pool ?budget ~dedup ~max_depth ~max_states ~inputs
        config
  | _ ->
      Explore.search ?obs ?budget ~dedup ~max_depth ~max_states ~state ~inputs
        config
