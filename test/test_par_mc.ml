(* Differential suite for the parallel model checker ([Mc.Par_explore]),
   pinning its contract against the sequential [Explore.search]
   (DESIGN.md §4b):

   - violation verdict, exit status and witness: identical for every
     registry protocol and dedup mode at jobs 1, 2 and 4 (violating runs
     return the sequential search's whole result, so flawed protocols
     match field for field);
   - under [`Off] every result field is identical (both count exactly the
     choice-tree nodes);
   - [max_states] is one global cap: [visited] overshoots it only by each
     worker's unwind, a run cut by both bounds reports [`Depth], and a
     run cut by the cap alone reports [`States];
   - a cancelled run returns a cancelled verdict and leaves its pool fit
     for the next search;
   - a steal storm (8 domains on 2 cores) neither hangs nor changes the
     verdict.

   Every jobs >= 2 case runs several times: the schedule differs between
   runs, the contract must not.  Watchdogs turn a hang into a loud exit,
   as in [test_chaos]. *)

open Consensus

let repeats = 5

let with_watchdog ?(timeout = 300.) name f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. timeout in
        let rec wait () =
          if Atomic.get finished then ()
          else if Unix.gettimeofday () > deadline then begin
            Printf.eprintf "shard watchdog: %S hung (> %.0fs); aborting\n%!"
              name timeout;
            exit 124
          end
          else begin
            Unix.sleepf 0.05;
            wait ()
          end
        in
        wait ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

let project_violation (r : _ Mc.Explore.result) =
  ( (Serve.Job.mc_report r).Serve.Job.status,
    match r.Mc.Explore.violation with
    | None -> None
    | Some v ->
        Some
          ( (match v.Mc.Explore.kind with
            | `Inconsistent -> "inconsistent"
            | `Invalid -> "invalid"),
            Sim.Trace.to_string string_of_int v.Mc.Explore.trace ) )

let project_result (r : _ Mc.Explore.result) =
  ( project_violation r,
    r.Mc.Explore.visited,
    r.Mc.Explore.leaves,
    r.Mc.Explore.truncated,
    Robust.Budget.completeness_to_string r.Mc.Explore.completeness,
    r.Mc.Explore.max_depth_seen,
    r.Mc.Explore.table_hits,
    r.Mc.Explore.table_misses )

let dedup_name = function
  | `Off -> "off"
  | `Exact -> "exact"
  | `Symmetric -> "symmetric"

let find_exn name =
  match Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "protocol %S not in registry" name

let smallest_n (p : Protocol.t) =
  let rec go n =
    if n > 8 then invalid_arg p.name
    else if p.supports_n n then n
    else go (n + 1)
  in
  go 2

(* [check ~label jobs r] for each of [rounds] parallel runs at each job
   count (one run at jobs 1, which is the sequential search) *)
let across_jobs ?(jobs = [ 1; 2; 4 ]) ?(rounds = repeats) run check =
  List.iter
    (fun j ->
      Par.with_pool ~jobs:j (fun pool ->
          for round = 1 to if j = 1 then 1 else rounds do
            check (Printf.sprintf "jobs=%d round %d" j round) (run pool)
          done))
    jobs

(* ---- registry-wide parity ---- *)

let test_registry_parity () =
  with_watchdog ~timeout:900. "registry parity" @@ fun () ->
  List.iter
    (fun (p : Protocol.t) ->
      let n = smallest_n p in
      let inputs = List.init n (fun i -> i land 1) in
      List.iter
        (fun dedup ->
          let search ?pool () =
            Mc.Par_explore.search ?pool ~dedup ~max_depth:6
              ~max_states:500_000 ~inputs:[ 0; 1 ]
              (Protocol.initial_config p ~inputs)
          in
          let seq = search () in
          across_jobs
            (fun pool -> search ~pool ())
            (fun label r ->
              let label =
                Printf.sprintf "%s dedup=%s %s" p.name (dedup_name dedup)
                  label
              in
              Alcotest.(check bool)
                (label ^ ": violation parity")
                true
                (project_violation r = project_violation seq);
              if dedup = `Off then
                Alcotest.(check bool)
                  (label ^ ": full parity under off")
                  true
                  (project_result r = project_result seq)))
        [ `Off; `Exact; `Symmetric ])
    Registry.all

(* ---- flawed protocols: violating runs are the sequential result ---- *)

let test_flawed_full_parity () =
  with_watchdog "flawed full parity" @@ fun () ->
  List.iter
    (fun (p : Protocol.t) ->
      let config () = Protocol.initial_config p ~inputs:[ 0; 1 ] in
      List.iter
        (fun dedup ->
          let seq =
            Mc.Explore.search ~dedup ~max_depth:12 ~inputs:[ 0; 1 ] (config ())
          in
          Alcotest.(check bool) (p.name ^ ": is violating") true
            (seq.Mc.Explore.violation <> None);
          across_jobs
            (fun pool ->
              Mc.Par_explore.search ~pool ~dedup ~max_depth:12 ~inputs:[ 0; 1 ]
                (config ()))
            (fun label r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s dedup=%s %s: full parity" p.name
                   (dedup_name dedup) label)
                true
                (project_result r = project_result seq)))
        [ `Off; `Exact; `Symmetric ])
    [
      Flawed.first_writer ~r:1;
      Flawed.unanimous ~style:Flawed.Rw ~r:1;
      Flawed.mixed ~r:2;
    ]

(* ---- one symmetric state under every root child ---- *)

let test_unanimous_symmetric () =
  (* unanimous inputs make every root child the same state under
     [`Symmetric], so two workers dive into one subtree at once: the
     claim/skip rule must keep the verdict, and [`Off] all fields *)
  with_watchdog "unanimous rw-3n" @@ fun () ->
  let p = find_exn "rw-3n" in
  let inputs = [ 0; 0; 0; 0 ] in
  List.iter
    (fun dedup ->
      let search ?pool () =
        Mc.Par_explore.search ?pool ~dedup ~max_depth:9 ~inputs
          (Protocol.initial_config p ~inputs)
      in
      let seq = search () in
      across_jobs ~jobs:[ 2; 4 ]
        (fun pool -> search ~pool ())
        (fun label r ->
          let label = Printf.sprintf "dedup=%s %s" (dedup_name dedup) label in
          Alcotest.(check bool) (label ^ ": verdict parity") true
            (project_violation r = project_violation seq);
          Alcotest.(check string) (label ^ ": verdict line")
            (Robust.Budget.completeness_to_string seq.Mc.Explore.completeness)
            (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
          if dedup = `Off then
            Alcotest.(check bool) (label ^ ": full parity") true
              (project_result r = project_result seq)))
    [ `Off; `Symmetric ]

(* ---- the state cap is global ---- *)

let test_global_state_cap () =
  with_watchdog "global state cap" @@ fun () ->
  let p = find_exn "counter-3" in
  let inputs = [ 0; 1; 0 ] in
  let cap = 100_000 and max_depth = 24 in
  let config () = Protocol.initial_config p ~inputs in
  let seq =
    Mc.Explore.search ~dedup:`Exact ~max_depth ~max_states:cap ~inputs
      (config ())
  in
  (* a worker's unwind: at most every remaining sibling on its stack *)
  let branching =
    Sim.Config.n_procs (config ()) * 2 (* counter-3 coins are binary *)
  in
  List.iter
    (fun jobs ->
      across_jobs ~jobs:[ jobs ]
        (fun pool ->
          Mc.Par_explore.search ~pool ~dedup:`Exact ~max_depth
            ~max_states:cap ~inputs (config ()))
        (fun label r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: visited %d within cap + unwinds" label
               r.Mc.Explore.visited)
            true
            (r.Mc.Explore.visited <= cap + (jobs * max_depth * branching));
          Alcotest.(check string)
            (label ^ ": depth over states, as sequentially")
            (Robust.Budget.completeness_to_string seq.Mc.Explore.completeness)
            (Robust.Budget.completeness_to_string r.Mc.Explore.completeness)))
    [ 2; 4 ];
  Alcotest.(check string) "sequential verdict" "truncated (depth)"
    (Robust.Budget.completeness_to_string seq.Mc.Explore.completeness);
  (* the cap alone binds: no path of counter-3 0,0,0 comes near depth
     400, so no worker may report a depth cut — in particular not by
     hitting an entry whose subtree the cap cut.  That needs a worker
     still holding quota when another runs dry, which is rare on 2
     cores (about one 8-domain run in ten), hence the many rounds. *)
  let inputs = [ 0; 0; 0 ] and max_depth = 400 in
  let config () = Protocol.initial_config p ~inputs in
  let search ?pool () =
    Mc.Par_explore.search ?pool ~dedup:`Exact ~max_depth ~max_states:cap
      ~inputs (config ())
  in
  let seq = search () in
  Alcotest.(check string) "sequential verdict, cap alone" "truncated (states)"
    (Robust.Budget.completeness_to_string seq.Mc.Explore.completeness);
  across_jobs ~jobs:[ 2; 4; 8 ] ~rounds:30
    (fun pool -> search ~pool ())
    (fun label r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: max depth %d stays below the bound" label
           r.Mc.Explore.max_depth_seen)
        true
        (r.Mc.Explore.max_depth_seen < max_depth);
      Alcotest.(check string)
        (label ^ ": cap alone reports states, as sequentially")
        "truncated (states)"
        (Robust.Budget.completeness_to_string r.Mc.Explore.completeness))

(* ---- cancellation: a cancelled verdict, and a pool fit for reuse ---- *)

let test_cancelled_leaves_pool_reusable () =
  with_watchdog "cancelled drain" @@ fun () ->
  let p = find_exn "counter-3" in
  let config () = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
  let seq dedup =
    Mc.Explore.search ~dedup ~max_depth:10 ~inputs:[ 0; 1 ] (config ())
  in
  let seq_exact = seq `Exact and seq_off = seq `Off in
  Par.with_pool ~jobs:2 (fun pool ->
      for round = 1 to repeats do
        let label = Printf.sprintf "round %d" round in
        let cancel = Robust.Cancel.create () in
        Robust.Cancel.set cancel;
        let r =
          Mc.Par_explore.search ~pool ~dedup:`Exact ~max_depth:12
            ~budget:(Robust.Budget.make ~cancel ())
            ~inputs:[ 0; 1 ] (config ())
        in
        Alcotest.(check string)
          (label ^ ": pre-set cancel token truncates")
          "truncated (cancelled)"
          (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
        Alcotest.(check bool) (label ^ ": no spurious violation") true
          (r.Mc.Explore.violation = None);
        (* the next searches on the same pool see nothing of it *)
        let r =
          Mc.Par_explore.search ~pool ~dedup:`Exact ~max_depth:10
            ~inputs:[ 0; 1 ] (config ())
        in
        Alcotest.(check bool) (label ^ ": verdict parity after cancel") true
          (project_violation r = project_violation seq_exact);
        Alcotest.(check string) (label ^ ": verdict line after cancel")
          (Robust.Budget.completeness_to_string
             seq_exact.Mc.Explore.completeness)
          (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
        let r =
          Mc.Par_explore.search ~pool ~max_depth:10 ~inputs:[ 0; 1 ]
            (config ())
        in
        Alcotest.(check bool) (label ^ ": full parity after cancel") true
          (project_result r = project_result seq_off)
      done)

(* ---- node budget: budgeted runs are the sequential search ---- *)

let test_node_budget_trips () =
  with_watchdog "node budget" @@ fun () ->
  let p = find_exn "counter-3" in
  let config = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
  across_jobs
    (fun pool ->
      Mc.Par_explore.search ~pool ~max_depth:12
        ~budget:(Robust.Budget.make ~nodes:50 ())
        ~inputs:[ 0; 1 ] config)
    (fun label r ->
      Alcotest.(check string)
        (label ^ ": node budget trips")
        "truncated (nodes)"
        (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
      Alcotest.(check bool)
        (label ^ ": visited stays within the allowance")
        true
        (r.Mc.Explore.visited <= 50))

(* ---- pool-default jobs: the path CI's RANDSYNC_JOBS matrix widens ---- *)

let test_env_default_jobs () =
  with_watchdog "env default jobs" @@ fun () ->
  let p = find_exn "counter-3" in
  let config () = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
  let seq =
    Mc.Explore.search ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ] (config ())
  in
  (* no ~jobs: the pool takes Par.default_jobs (), which reads
     RANDSYNC_JOBS — the verdict must not depend on what it says *)
  Par.with_pool (fun pool ->
      let r =
        Mc.Par_explore.search ~pool ~dedup:`Exact ~max_depth:10
          ~inputs:[ 0; 1 ] (config ())
      in
      Alcotest.(check bool) "verdict parity at RANDSYNC_JOBS default" true
        (project_violation r = project_violation seq))

(* ---- steal storm: 8 domains on one table ---- *)

let test_steal_storm () =
  with_watchdog "steal storm" @@ fun () ->
  let p = find_exn "rw-3n" in
  let n = smallest_n p in
  let inputs = List.init n (fun i -> i land 1) in
  let config () = Protocol.initial_config p ~inputs in
  let seq =
    Mc.Explore.search ~dedup:`Exact ~max_depth:7 ~inputs:[ 0; 1 ] (config ())
  in
  let flawed = Flawed.first_writer ~r:1 in
  let fconfig () = Protocol.initial_config flawed ~inputs:[ 0; 1 ] in
  let fseq =
    Mc.Explore.search ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ] (fconfig ())
  in
  Par.with_pool ~jobs:8 (fun pool ->
      for round = 1 to 3 do
        let obs = Obs.create () in
        let r =
          Mc.Par_explore.search ~obs ~pool ~dedup:`Exact ~max_depth:7 ~inputs:[ 0; 1 ] (config ())
        in
        Alcotest.(check bool)
          (Printf.sprintf "storm round %d: verdict parity" round)
          true
          (project_violation r = project_violation seq);
        (* the result counters are the merged result's fields *)
        Alcotest.(check int) "mc/visited = visited" r.Mc.Explore.visited
          (Obs.Metrics.counter (Obs.metrics obs) "mc/visited");
        (* and a violating storm still reports the canonical witness *)
        let fr =
          Mc.Par_explore.search ~pool ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ] (fconfig ())
        in
        Alcotest.(check bool) "storm witness parity" true
          (project_result fr = project_result fseq)
      done)

(* Registered as the ["shard"] group: case ids carry over from the
   sharded engine this checker replaced, so results stay comparable
   across versions (the order matters to those ids).  The "shards" in
   two ids name that engine's configurations, not this one's. *)
let suite =
  [
    Alcotest.test_case "registry verdict parity (shards x jobs x dedup)" `Quick
      test_registry_parity;
    Alcotest.test_case "flawed protocols: full field parity" `Quick
      test_flawed_full_parity;
    Alcotest.test_case "unanimous rw-3n: one symmetric subtree" `Quick
      test_unanimous_symmetric;
    Alcotest.test_case "cancelled drain leaves recoverable pool" `Quick
      test_cancelled_leaves_pool_reusable;
    Alcotest.test_case "node budget trips" `Quick test_node_budget_trips;
    Alcotest.test_case "pool-default jobs (RANDSYNC_JOBS)" `Quick
      test_env_default_jobs;
    Alcotest.test_case "steal storm (2 shards, 8 domains)" `Quick
      test_steal_storm;
    Alcotest.test_case "max-states is one global cap" `Quick
      test_global_state_cap;
  ]
