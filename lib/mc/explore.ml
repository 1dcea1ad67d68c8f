(* Exhaustive exploration of the execution tree of a configuration: at every
   node the adversary chooses which enabled process steps, and for internal
   coin-flip steps *also* chooses the outcome (this is exactly the
   nondeterminism against which the paper's correctness conditions are
   stated: no execution may violate consistency or validity).

   Exploration is depth-bounded DFS.  Process states are closures and
   cannot be hashed directly — but they never need to be: a process is a
   deterministic step machine, so its state is fully determined by its
   initial protocol term and the sequence of responses / coin outcomes it
   consumed, and [Config.fps] maintains a 64-bit hash of exactly that
   history (see [Sim.Fingerprint]).  The optional transposition table
   ([~dedup]) keys on (object values, per-process fingerprints) and
   memoizes "subtree violation-free up to remaining depth d", collapsing
   the configurations that different interleavings reach redundantly:

   - [`Off]       — the plain DFS (the baseline; bit-identical to the
                    pre-table checker).
   - [`Exact]     — per-slot fingerprints: two configurations are merged
                    when every process consumed the same history and the
                    objects hold the same values.  Always sound.
   - [`Symmetric] — additionally sorts the per-process fingerprints, so
                    permutations of interchangeable processes collapse to
                    one state.  Sound exactly when fingerprint equality
                    implies state equality *across* process slots: either
                    all processes start from one protocol term (identical
                    processes with one input — the Theorem 3.3 setting),
                    or the initial fingerprints of differing terms were
                    distinguished via [Config.make ~fp_seeds] (what
                    [Consensus.Protocol.initial_config] does).

   Memoized skips of *complete* (exhaustively clean) subtrees never affect
   the verdict or [truncated]; skips of depth-bounded entries conservatively
   set [truncated].  The DFS inner loop allocates only the successor
   configuration and one choice-path cell per step: witness traces are
   reconstructed by replaying the recorded (pid, outcome) choice path only
   when a violation is actually found. *)

open Sim

type dedup = [ `Off | `Exact | `Symmetric ]

type 'a violation = {
  kind : [ `Inconsistent | `Invalid ];
  trace : 'a Trace.t;  (** the execution leading to the violation *)
  config : 'a Config.t;
}

type 'a result = {
  violation : 'a violation option;
  visited : int;  (** nodes expanded *)
  leaves : int;  (** maximal executions reached (all procs decided) *)
  truncated : bool;  (** [completeness <> `Exhaustive] *)
  completeness : Robust.Budget.completeness;
      (** why (and whether) the exploration stopped short; a budget trip
          dominates the structural bounds, which report the first reason
          hit in sequential DFS preorder *)
  max_depth_seen : int;
  table_hits : int;  (** subtrees skipped via the transposition table *)
  table_misses : int;
      (** lookups that found no reusable entry; 0 under [`Off], and
          restarts from 0 on resume (not part of the checkpoint format) *)
}

(** All single-step successors of [config] for process [pid]: one successor
    for an [Apply] step, [n] successors for a [Choose] step. *)
let successors config pid =
  match config.Config.procs.(pid) with
  | Proc.Decide _ -> []
  | Proc.Apply _ -> [ Run.step config ~pid ~coin:(fun _ -> 0) ]
  | Proc.Choose { n; _ } ->
      List.init n (fun outcome -> Run.step config ~pid ~coin:(fun _ -> outcome))

(* --- the transposition table ----------------------------------------- *)

module Key = struct
  type t = {
    hash : int;
    objs : Value.t array;  (** shared with the (immutable) configuration *)
    fps : int array;  (** per-slot fingerprints; sorted under [`Symmetric] *)
  }

  (* toplevel recursions — local [let rec]s here would allocate a
     closure pair on every table lookup *)
  let rec ints (x : int array) (y : int array) i =
    i < 0 || (Int.equal (Array.unsafe_get x i) (Array.unsafe_get y i) && ints x y (i - 1))

  let rec vals (x : Value.t array) (y : Value.t array) i =
    i < 0 || (Value.equal x.(i) y.(i) && vals x y (i - 1))

  let equal a b =
    Int.equal a.hash b.hash
    && Array.length a.fps = Array.length b.fps
    && Array.length a.objs = Array.length b.objs
    && ints a.fps b.fps (Array.length a.fps - 1)
    && vals a.objs b.objs (Array.length a.objs - 1)

  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

(* "Violation-free up to remaining depth [depth]"; [complete] once the
   subtree has been exhausted without hitting any bound (a horizon-free
   fact: revisits may skip it at any remaining depth). *)
type entry = { mutable depth : int; mutable complete : bool }

(* The DFS configurations are persistent (never mutated after [step]), so
   the key can share [objects] — and, under [`Exact], [fps] — with the
   configuration instead of copying. *)
let key_of_config ~symmetric (config : 'a Config.t) =
  let fps =
    if symmetric then begin
      let fps = Array.copy config.Config.fps in
      Array.sort (compare : int -> int -> int) fps;
      fps
    end
    else config.Config.fps
  in
  let h = ref (Array.length fps) in
  Array.iter (fun fp -> h := Fingerprint.mix !h fp) fps;
  Array.iter
    (fun v -> h := Fingerprint.mix !h (Fingerprint.value_hash v))
    config.Config.objects;
  { Key.hash = !h; objs = config.Config.objects; fps }

(* Re-execute a root-to-node choice path with full event collection: the
   witness of a violation found at its end. *)
let witness root kind path =
  let rec replay config rev_events = function
    | [] -> (config, List.rev rev_events)
    | (pid, outcome) :: rest ->
        let config', events = Run.step config ~pid ~coin:(fun _ -> outcome) in
        replay config' (List.rev_append events rev_events) rest
  in
  let config, trace = replay root [] path in
  { kind; trace; config }

(* The closure DFS engine.  Witness traces are *lazy*: the DFS records
   only the choice path and re-executes it ([witness]) when a violation
   is actually found — the violation-free tree never allocates events or
   trace segments.

   Resource governance: [~budget] meters node entries.  The meter is
   consulted *before* a node is counted, so a tripped node is exactly the
   first unvisited node of the sequential preorder — which makes the trip
   point a checkpoint cursor for free.  Structural bounds ([max_depth],
   [max_states]) record their reason in [first_reason] and keep exploring
   other branches, as before; a budget trip ([`Nodes]/[`Deadline]/
   [`Cancelled]) unwinds the whole DFS via [Budget_stop].  In the
   result's [completeness] a trip dominates the structural reasons: a
   structural cut prunes branches but still answers the bounded question,
   while a trip abandons the rest of the tree — the caller must not read
   "truncated (depth)" off a run whose budget ran out halfway.

   Checkpoint/resume: [~on_checkpoint] is called with the counters and
   the root-to-cursor choice path every [checkpoint_every] visited nodes
   and once more at a budget trip.  [~resume] restores the counters and
   fast-forwards to the cursor: nodes on the resume path are re-entered
   without being re-counted (they were counted before the interruption),
   siblings left of the path are skipped outright, and the table is not
   consulted on the path (the table is not checkpointed; under [`Off] the
   resumed run is bit-identical to an uninterrupted one, pinned by
   [test_checkpoint]). *)
let search_from ~polls ~budget ~checkpoint_every ~on_checkpoint ~resume ~dedup
    ~max_depth ~max_states ~inputs config =
  let resume = match resume with None -> Checkpoint.empty | Some s -> s in
  let visited = ref resume.Checkpoint.visited in
  let leaves = ref resume.Checkpoint.leaves in
  let table_hits = ref resume.Checkpoint.table_hits in
  (* not checkpointed: a resumed run's miss count covers the resumed
     portion only *)
  let table_misses = ref 0 in
  (* counts truncation points so subtree completeness is a before/after
     comparison, not a sticky boolean *)
  let trunc = ref resume.Checkpoint.trunc in
  let max_depth_seen = ref resume.Checkpoint.max_depth_seen in
  (* first structural (depth/states) truncation in preorder; budget trips
     are kept separate because a resumed run voids them *)
  let first_reason = ref resume.Checkpoint.reason in
  let found : 'a violation option ref = ref None in
  let exception Stop in
  let exception Budget_stop of Robust.Budget.reason * (int * int) list in
  let meter =
    match budget with
    | Some b when not (Robust.Budget.is_unlimited b) ->
        Some (Robust.Budget.Meter.create b)
    | _ -> None
  in
  let mk_state rev_choices =
    {
      Checkpoint.visited = !visited;
      leaves = !leaves;
      table_hits = !table_hits;
      max_depth_seen = !max_depth_seen;
      trunc = !trunc;
      reason = !first_reason;
      path = List.rev rev_choices;
    }
  in
  let truncate reason =
    if !first_reason = None then first_reason := Some reason;
    incr trunc
  in
  let table =
    match dedup with `Off -> None | `Exact | `Symmetric -> Some (Tbl.create 1024)
  in
  let symmetric = dedup = `Symmetric in
  let stop kind rev_choices =
    found := Some (witness config kind (List.rev rev_choices));
    raise Stop
  in
  (* the root's decisions (processes may decide without taking a single
     step) participate in the verdicts; also seeds the
     distinct-decided-values accumulator for the incremental path checks *)
  let check_prefix () =
    let values = List.sort_uniq compare (Config.decisions config) in
    if List.length values > 1 then stop `Inconsistent []
    else if not (List.for_all (fun v -> List.mem v inputs) values) then
      stop `Invalid [];
    values
  in
  let rec go config rev_choices distinct depth resuming =
    match resuming with
    | _ :: _ ->
        (* on the resume path: counted before the interruption *)
        expand config rev_choices distinct depth resuming
    | [] -> (
        (match meter with
        | None -> ()
        | Some m -> (
            match Robust.Budget.Meter.tick_node m with
            | None -> ()
            | Some r -> raise (Budget_stop (r, rev_choices))));
        (match on_checkpoint with
        | Some f when !visited > 0 && !visited mod checkpoint_every = 0 ->
            f (mk_state rev_choices)
        | _ -> ());
        incr visited;
        if depth > !max_depth_seen then max_depth_seen := depth;
        if !visited > max_states then truncate `States
        else if not (Config.exists_enabled config) then incr leaves
        else if depth >= max_depth then truncate `Depth
        else
          match table with
          | None -> expand config rev_choices distinct depth []
          | Some tbl -> (
              let rd = max_depth - depth in
              let key = key_of_config ~symmetric config in
              match Tbl.find_opt tbl key with
              | Some e when e.complete -> incr table_hits
              | Some e when e.depth >= rd ->
                  incr table_hits;
                  (* clean to a horizon at least as deep as ours, but the
                     tree extends beyond it: a re-exploration could not
                     have been exhaustive either *)
                  truncate `Depth
              | shallow ->
                  incr table_misses;
                  let trunc0 = !trunc in
                  expand config rev_choices distinct depth [];
                  (* no violation below (Stop would have escaped) *)
                  let complete = !trunc = trunc0 in
                  (match shallow with
                  | Some e ->
                      e.depth <- max e.depth rd;
                      if complete then e.complete <- true
                  | None -> Tbl.replace tbl key { depth = rd; complete })))
  and expand config rev_choices distinct depth resuming =
    match resuming with
    | [] ->
        Config.iter_enabled config (fun pid ->
            match config.Config.procs.(pid) with
            | Proc.Decide _ -> assert false (* not enabled *)
            | Proc.Apply _ -> child config rev_choices distinct depth pid 0 []
            | Proc.Choose { n; _ } ->
                for outcome = 0 to n - 1 do
                  child config rev_choices distinct depth pid outcome []
                done)
    | cursor :: rest ->
        (* fast-forward: children left of the cursor were fully explored
           before the interruption; the cursor child is re-entered with the
           rest of the path; children right of it are explored normally *)
        let matched = ref false in
        Config.iter_enabled config (fun pid ->
            let visit outcome =
              let c = compare (pid, outcome) cursor in
              if c = 0 then begin
                matched := true;
                child config rev_choices distinct depth pid outcome rest
              end
              else if c > 0 then
                child config rev_choices distinct depth pid outcome []
            in
            match config.Config.procs.(pid) with
            | Proc.Decide _ -> assert false (* not enabled *)
            | Proc.Apply _ -> visit 0
            | Proc.Choose { n; _ } ->
                for outcome = 0 to n - 1 do
                  visit outcome
                done);
        if not !matched then
          invalid_arg
            "Explore.search: resume path does not match the scenario \
             (wrong protocol, inputs or configuration?)"
  and child config rev_choices distinct depth pid outcome resuming =
    let config' = Run.step_quiet config ~pid ~coin:(fun _ -> outcome) in
    let rev_choices' = (pid, outcome) :: rev_choices in
    let distinct' =
      match Config.decision config' pid with
      | None -> distinct
      | Some v ->
          if List.mem v distinct then distinct
          else if distinct <> [] then stop `Inconsistent rev_choices'
          else if not (List.mem v inputs) then stop `Invalid rev_choices'
          else v :: distinct
    in
    go config' rev_choices' distinct' (depth + 1) resuming
  in
  let tripped = ref None in
  (try
     let distinct = check_prefix () in
     go config [] distinct 0 resume.Checkpoint.path
   with
  | Stop -> ()
  | Budget_stop (r, cursor) ->
      tripped := Some r;
      (* the cursor node is uncounted, so this state resumes exactly there *)
      Option.iter (fun f -> f (mk_state cursor)) on_checkpoint);
  Option.iter (fun m -> polls := !polls + Robust.Budget.Meter.polls m) meter;
  let completeness =
    match (!tripped, !first_reason) with
    | Some r, _ -> `Truncated r
    | None, Some r -> `Truncated r
    | None, None -> `Exhaustive
  in
  {
    violation = !found;
    visited = !visited;
    leaves = !leaves;
    truncated = completeness <> `Exhaustive;
    completeness;
    max_depth_seen = !max_depth_seen;
    table_hits = !table_hits;
    table_misses = !table_misses;
  }

(* --- the flat-slab engine -------------------------------------------- *)

type state = [ `Closure | `Flat ]

(* The flat-slab DFS: identical traversal order, counter accounting, and
   budget metering as [search_from], over a {!Sim.Flat} slab mutated in
   place.  Stepping into a child saves the overwritten slot ids in locals
   on the call stack, recurses, and writes them back — the undo-cell
   discipline; slot writes are hash-self-inverse, so the transposition
   hashes restore with them and nothing is allocated on the
   violation-free path except the (pid, outcome) choice cell.

   Table lookups go through one reused scratch key per search
   ([`Symmetric] insertion-sorts the scratch's sid slice in place); a
   miss blits the key into the {!Atbl} arena *before* expanding the
   subtree (whose own lookups clobber the scratch), marked in-progress
   (stored depth -1) — which every revisit treats exactly as the
   closure engine treats an absent entry, so counters match node for
   node, while the held arena offset lets the post-expansion update
   write the final (depth, complete) meta without re-probing.

   Witnesses stay engine-independent: on a violation the recorded choice
   path is replayed with the *closure* engine ([witness]), so the
   reported trace and configuration are bit-identical to [search_from]'s.

   Checkpointing is not offered here (the closure engine remains the
   checkpoint/resume path); a budget trip just reports its reason. *)
let search_from_flat ~polls ~budget ~dedup ~max_depth ~max_states ~inputs
    config =
  let visited = ref 0 in
  let leaves = ref 0 in
  let table_hits = ref 0 in
  let table_misses = ref 0 in
  let trunc = ref 0 in
  let max_depth_seen = ref 0 in
  let first_reason = ref None in
  let found : 'a violation option ref = ref None in
  let exception Stop in
  let exception Budget_stop of Robust.Budget.reason in
  let meter =
    match budget with
    | Some b when not (Robust.Budget.is_unlimited b) ->
        Some (Robust.Budget.Meter.create b)
    | _ -> None
  in
  let truncate reason =
    if !first_reason = None then first_reason := Some reason;
    incr trunc
  in
  let symmetric = dedup = `Symmetric in
  let flat =
    Flat.of_config ~hashed:(dedup <> `Off)
      ~roots:(if symmetric then Flat.By_fp else Flat.Per_slot)
      config
  in
  let rt = Flat.rt flat in
  let n_objs = Flat.n_objs flat and n_procs = Flat.n_procs flat in
  let width = n_objs + n_procs in
  let table =
    match dedup with
    | `Off -> None
    | `Exact | `Symmetric -> Some (Atbl.create ~width ())
  in
  (* one reused scratch key per search: the slab slice, with the sid
     slice insertion-sorted in place under [`Symmetric] (n_procs is
     small; no comparator closure, no allocation) *)
  let skey = Array.make width 0 in
  let fill_skey () =
    Flat.slab_copy flat ~into:skey;
    if symmetric then
      for p = n_objs + 1 to width - 1 do
        let v = Array.unsafe_get skey p in
        let j = ref (p - 1) in
        while !j >= n_objs && Array.unsafe_get skey !j > v do
          Array.unsafe_set skey (!j + 1) (Array.unsafe_get skey !j);
          decr j
        done;
        Array.unsafe_set skey (!j + 1) v
      done
  in
  (* The root-to-cursor choice path lives in two depth-indexed int arrays
     instead of cons cells: the violation-free DFS allocates nothing per
     node. *)
  let path_pid = Array.make (max max_depth 1) 0 in
  let path_out = Array.make (max max_depth 1) 0 in
  let stop kind path =
    found := Some (witness config kind path);
    raise Stop
  in
  let stop_at kind ~depth =
    stop kind (List.init depth (fun d -> (path_pid.(d), path_out.(d))))
  in
  let check_prefix () =
    let values = List.sort_uniq compare (Config.decisions config) in
    if List.length values > 1 then stop `Inconsistent []
    else if not (List.for_all (fun v -> List.mem v inputs) values) then
      stop `Invalid [];
    values
  in
  let rec go distinct depth =
    (match meter with
    | None -> ()
    | Some m -> (
        match Robust.Budget.Meter.tick_node m with
        | None -> ()
        | Some r -> raise (Budget_stop r)));
    incr visited;
    if depth > !max_depth_seen then max_depth_seen := depth;
    if !visited > max_states then truncate `States
    else if Flat.enabled_count flat = 0 then incr leaves
    else if depth >= max_depth then truncate `Depth
    else
      match table with
      | None -> expand distinct depth
      | Some tbl ->
          let rd = max_depth - depth in
          fill_skey ();
          let hash = if symmetric then Flat.hsym flat else Flat.hexact flat in
          let o = Atbl.find tbl ~hash skey in
          (* meta = (stored_depth + 1) lsl 1 lor complete; a fresh
             in-progress entry (meta 0, stored depth -1, incomplete)
             behaves exactly like the closure engine's absent entry *)
          let m = if o >= 0 then Atbl.meta tbl o else 0 in
          if m land 1 = 1 then incr table_hits
          else if (m lsr 1) - 1 >= rd then begin
            incr table_hits;
            truncate `Depth
          end
          else begin
            incr table_misses;
            (* insert up front (the subtree's lookups clobber [skey]);
               the held offset is updated after expansion *)
            let o = if o >= 0 then o else Atbl.insert tbl ~hash skey in
            let trunc0 = !trunc in
            expand distinct depth;
            let complete = !trunc = trunc0 in
            let depth' = max ((m lsr 1) - 1) rd in
            Atbl.set_meta tbl o
              (((depth' + 1) lsl 1) lor Bool.to_int complete)
          end
  and expand distinct depth =
    (* step in place, recurse, undo from stack locals; one packed
       [Intern.code] load answers kind, enabledness and arg at once *)
    for pid = 0 to n_procs - 1 do
      if not (Flat.is_halted flat pid) then begin
        let sid0 = Flat.sid flat pid in
        let code = Intern.code rt sid0 in
        let tag = code land 3 in
        if tag = Intern.tag_apply then begin
          let obj = code lsr 2 in
          let vid0 = Flat.obj_vid flat obj in
          let packed = Intern.apply_packed rt ~sid:sid0 ~vid:vid0 in
          let sid' = Intern.sid_of packed in
          Flat.write_obj flat obj (Intern.vid_of packed);
          Flat.write_sid flat pid sid';
          enter distinct depth pid 0 sid';
          Flat.write_sid flat pid sid0;
          Flat.write_obj flat obj vid0
        end
        else if tag = Intern.tag_choose then begin
          let n = code lsr 2 in
          for outcome = 0 to n - 1 do
            let sid' = Intern.choose rt ~sid:sid0 ~outcome in
            Flat.write_sid flat pid sid';
            enter distinct depth pid outcome sid';
            Flat.write_sid flat pid sid0
          done
        end
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
            else if distinct <> [] then stop_at `Inconsistent ~depth:(depth + 1)
            else if not (List.mem v inputs) then
              stop_at `Invalid ~depth:(depth + 1)
            else v :: distinct
    in
    go distinct' (depth + 1);
    if decided then Flat.note_undecided flat pid
  in
  let tripped = ref None in
  (try
     let distinct = check_prefix () in
     go distinct 0
   with
  | Stop -> ()
  | Budget_stop r -> tripped := Some r);
  Option.iter (fun m -> polls := !polls + Robust.Budget.Meter.polls m) meter;
  let completeness =
    match (!tripped, !first_reason) with
    | Some r, _ -> `Truncated r
    | None, Some r -> `Truncated r
    | None, None -> `Exhaustive
  in
  {
    violation = !found;
    visited = !visited;
    leaves = !leaves;
    truncated = completeness <> `Exhaustive;
    completeness;
    max_depth_seen = !max_depth_seen;
    table_hits = !table_hits;
    table_misses = !table_misses;
  }

(* Counter values are the result fields, verbatim — the documented
   contract that lets a --metrics dump be cross-checked against the CLI's
   stdout summary.  Called on the caller's domain only. *)
let record_result obs (r : 'a result) =
  Obs.add obs "mc/visited" r.visited;
  Obs.add obs "mc/leaves" r.leaves;
  Obs.add obs "mc/table-hits" r.table_hits;
  Obs.add obs "mc/table-misses" r.table_misses;
  Obs.record_max obs "mc/max-depth" r.max_depth_seen;
  (match r.completeness with
  | `Exhaustive -> ()
  | `Truncated reason ->
      Obs.incr obs ("mc/truncated/" ^ Robust.Budget.reason_to_string reason));
  r

let search ?obs ?budget ?(dedup = `Off) ?(max_depth = 60)
    ?(max_states = 2_000_000) ?(checkpoint_every = 50_000) ?on_checkpoint
    ?resume ?(state = `Flat) ~inputs config =
  Obs.span obs "mc/search" @@ fun () ->
  let polls = ref 0 in
  (* checkpoint/resume stays on the closure engine: the flat DFS does not
     checkpoint (its cursor bookkeeping would buy nothing — resumed runs
     are rare and not hot) *)
  let use_flat =
    state = `Flat && Option.is_none on_checkpoint && Option.is_none resume
  in
  let r =
    if use_flat then
      search_from_flat ~polls ~budget ~dedup ~max_depth
        ~max_states ~inputs config
    else
      search_from ~polls ~budget ~checkpoint_every ~on_checkpoint
        ~resume ~dedup ~max_depth ~max_states ~inputs config
  in
  Obs.add obs "budget/polls" !polls;
  record_result obs r

(* --- reachable decisions, on the flat slab ----------------------------- *)

(* First terminating solo decision of [pid] from the slab's current
   configuration, trying coin outcomes in order.  Steps in place and
   undoes every step, so the slab is unchanged on return; [nodes] counts
   across all outcome branches, as [max_nodes] bounds the whole probe.
   Like [Run.step], it ignores crash flags. *)
let flat_solo flat ~pid ~max_steps ~max_nodes =
  let rt = Flat.rt flat in
  let nodes = ref 0 in
  let rec go steps =
    incr nodes;
    if !nodes > max_nodes || steps > max_steps then None
    else
      let sid0 = Flat.sid flat pid in
      let code = Intern.code rt sid0 in
      let tag = code land 3 in
      if tag = Intern.tag_decided then Intern.decision rt sid0
      else if tag = Intern.tag_apply then begin
        let obj = code lsr 2 in
        let vid0 = Flat.obj_vid flat obj in
        let packed = Intern.apply_packed rt ~sid:sid0 ~vid:vid0 in
        Flat.write_obj flat obj (Intern.vid_of packed);
        Flat.write_sid flat pid (Intern.sid_of packed);
        let found = go (steps + 1) in
        Flat.write_sid flat pid sid0;
        Flat.write_obj flat obj vid0;
        found
      end
      else begin
        let found = ref None and outcome = ref 0 in
        while Option.is_none !found && !outcome < code lsr 2 do
          Flat.write_sid flat pid (Intern.choose rt ~sid:sid0 ~outcome:!outcome);
          found := go (steps + 1);
          Flat.write_sid flat pid sid0;
          incr outcome
        done;
        !found
      end
  in
  go 0

let solo_decision ?(max_steps = 300) ?(max_nodes = 5_000) config ~pid =
  let flat = Flat.of_config ~hashed:false ~roots:Flat.Per_slot config in
  flat_solo flat ~pid ~max_steps ~max_nodes

(* The DFS steps one slab in place and undoes each step, in [Run.step]
   order over the persistent configurations (pids ascending, coin
   outcomes ascending).  Every entered node counts against [max_states],
   and a node past either cap marks the result truncated without being
   expanded.  Nothing is deduplicated, so [(values, truncated)] equals a
   closure-configuration DFS's bit for bit; [test/test_decidable.ml]
   keeps that DFS as the referee. *)
let decidable_values ?(max_depth = 60) ?(max_states = 2_000_000) config =
  let flat = Flat.of_config ~hashed:false ~roots:Flat.Per_slot config in
  let rt = Flat.rt flat in
  let n_procs = Flat.n_procs flat in
  let visited = ref 0 in
  let truncated = ref false in
  let values = ref [] in
  let add v = if not (List.mem v !values) then values := v :: !values in
  (* decisions already present count, and each enabled process's solo
     probe contributes a cheap reachable-decision witness *)
  List.iter add (Flat.decisions flat);
  for pid = 0 to n_procs - 1 do
    if Flat.is_enabled flat pid then
      Option.iter add (flat_solo flat ~pid ~max_steps:300 ~max_nodes:5_000)
  done;
  let rec go depth =
    incr visited;
    if !visited > max_states || depth >= max_depth then truncated := true
    else
      for pid = 0 to n_procs - 1 do
        if Flat.is_enabled flat pid then begin
          let sid0 = Flat.sid flat pid in
          let code = Intern.code rt sid0 in
          if code land 3 = Intern.tag_apply then begin
            let obj = code lsr 2 in
            let vid0 = Flat.obj_vid flat obj in
            let packed = Intern.apply_packed rt ~sid:sid0 ~vid:vid0 in
            Flat.write_obj flat obj (Intern.vid_of packed);
            enter depth pid sid0 (Intern.sid_of packed);
            Flat.write_obj flat obj vid0
          end
          else
            for outcome = 0 to (code lsr 2) - 1 do
              enter depth pid sid0 (Intern.choose rt ~sid:sid0 ~outcome)
            done
        end
      done
  and enter depth pid sid0 sid' =
    Flat.write_sid flat pid sid';
    Option.iter add (Intern.decision rt sid');
    go (depth + 1);
    Flat.write_sid flat pid sid0
  in
  go 0;
  (List.sort compare !values, !truncated)
