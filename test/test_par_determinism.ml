(* Determinism regression suite: every parallelized entry point must
   produce bit-identical results for jobs 1, 2, and 8 — and where the
   contract promises it, identical to the sequential code path.  Outcomes
   are projected to plain data before comparison because configs carry
   closures (structural [=] would raise). *)

open Consensus
open Lowerbound

(* Each check runs once sequentially (pool = None) and once per pool. *)
let pool_jobs = [ 1; 2; 8 ]

let across_pools f =
  let reference = f None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d = sequential" jobs)
            true
            (f (Some pool) = reference)))
    pool_jobs;
  reference

(* ---- Par_explore.search ---- *)

let project_result (r : _ Mc.Explore.result) =
  ( (match r.violation with
    | None -> None
    | Some v ->
        Some
          ( (match v.kind with `Inconsistent -> "inconsistent" | `Invalid -> "invalid"),
            Sim.Trace.to_string string_of_int v.trace )),
    r.visited,
    r.leaves,
    r.truncated,
    Robust.Budget.completeness_to_string r.completeness,
    r.max_depth_seen )

let config_of p inputs = Protocol.initial_config p ~inputs

let test_par_pool_independent () =
  let config = config_of Cas_consensus.protocol [ 0; 1; 1 ] in
  ignore
    (across_pools (fun pool ->
         project_result
           (Mc.Par_explore.search ?pool ~max_depth:12 ~inputs:[ 0; 1 ] config)))

let test_par_matches_sequential_fields () =
  (* without dedup the parallel result equals the sequential [search] in
     every field, not just the verdict — both when exhaustive and when
     depth-truncated *)
  List.iter
    (fun (name, p, inputs, max_depth) ->
      let seq =
        project_result
          (Mc.Explore.search ~max_depth ~inputs:[ 0; 1 ]
             (config_of p inputs))
      in
      let par =
        project_result
          (Par.with_pool ~jobs:2 (fun pool ->
               Mc.Par_explore.search ~pool ~max_depth ~inputs:[ 0; 1 ]
                 (config_of p inputs)))
      in
      Alcotest.(check bool) (name ^ ": all fields equal") true (par = seq))
    [
      ("cas exhaustive", Cas_consensus.protocol, [ 0; 1 ], 40);
      ("tas2 exhaustive", Tas2.protocol, [ 1; 0 ], 40);
      ("cas truncated", Cas_consensus.protocol, [ 0; 1; 1 ], 6);
      ("fa truncated", Fa_consensus.protocol, [ 0; 1 ], 8);
    ]

let test_par_depth_zero_and_violation_witness () =
  (* max_depth = 0: only the root is examined, trivially equal *)
  let config = config_of Cas_consensus.protocol [ 0; 1 ] in
  Alcotest.(check bool)
    "depth 0 equal" true
    (project_result
       (Par.with_pool ~jobs:2 (fun pool ->
            Mc.Par_explore.search ~pool ~max_depth:0 ~inputs:[ 0; 1 ] config))
    = project_result (Mc.Explore.search ~max_depth:0 ~inputs:[ 0; 1 ] config));
  (* a violation: the parallel search must report the same witness the
     sequential DFS finds, for every pool size *)
  let p = Flawed.first_writer ~r:1 in
  let witness pool =
    match
      (Mc.Par_explore.search ?pool ~max_depth:40 ~inputs:[ 0; 1 ]
         (config_of p [ 0; 1 ]))
        .violation
    with
    | Some v -> Sim.Trace.to_string string_of_int v.trace
    | None -> Alcotest.fail "model checker missed the planted bug"
  in
  let par_witness = across_pools witness in
  let seq_witness =
    match
      (Mc.Explore.search ~max_depth:40 ~inputs:[ 0; 1 ] (config_of p [ 0; 1 ]))
        .violation
    with
    | Some v -> Sim.Trace.to_string string_of_int v.trace
    | None -> Alcotest.fail "sequential search missed the planted bug"
  in
  Alcotest.(check string) "same witness as sequential" seq_witness par_witness

let test_par_node_budget_equals_sequential () =
  (* a node budget is deterministic under any job count AND equal to the
     sequential governed search in every field, completeness verdict
     included (budgeted runs take the sequential search).  Allowances
     straddle the interesting boundaries: the root alone, mid-subtree
     trips, a trip on the last node, and a budget beyond the tree
     (exhaustive). *)
  let config () = config_of Counter_consensus.protocol [ 0; 1 ] in
  List.iter
    (fun nodes ->
      let budget () = Robust.Budget.make ~nodes () in
      let seq =
        project_result
          (Mc.Explore.search ~budget:(budget ()) ~max_depth:9 ~inputs:[ 0; 1 ]
             (config ()))
      in
      let par =
        across_pools (fun pool ->
            project_result
              (Mc.Par_explore.search ?pool ~budget:(budget ()) ~max_depth:9
                 ~inputs:[ 0; 1 ] (config ())))
      in
      Alcotest.(check bool)
        (Printf.sprintf "nodes=%d: par = seq, all fields" nodes)
        true (par = seq))
    [ 1; 2; 3; 10; 1_000; 10_000; 100_000_000 ]

(* ---- Par_explore.search with dedup ---- *)

let test_par_dedup_witness_parity () =
  (* dedup never changes the reported witness, pooled or not *)
  let p = Flawed.first_writer ~r:1 in
  let config () = config_of p [ 0; 1 ] in
  let witness (r : int Mc.Explore.result) =
    match r.violation with
    | Some v -> Sim.Trace.to_string string_of_int v.trace
    | None -> Alcotest.fail "model checker missed the planted bug"
  in
  let reference =
    witness (Mc.Explore.search ~max_depth:40 ~inputs:[ 0; 1 ] (config ()))
  in
  List.iter
    (fun dedup ->
      let w =
        across_pools (fun pool ->
            witness
              (Mc.Par_explore.search ?pool ~dedup ~max_depth:40
                 ~inputs:[ 0; 1 ] (config ())))
      in
      Alcotest.(check string) "same witness under dedup" reference w)
    [ `Exact; `Symmetric ]

(* ---- Attack sweeps ---- *)

let project_attack = function
  | Ok (o : Attack.outcome) ->
      Ok
        ( Attack.succeeded o,
          o.processes_used,
          o.registers,
          o.nominal_n,
          Sim.Trace.to_string string_of_int o.trace )
  | Error e -> Error (Attack.error_to_string e)

let test_attack_seed_sweep_deterministic () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:2 in
  let seeds = List.init 12 (fun i -> i + 1) in
  ignore
    (across_pools (fun pool ->
         List.map
           (fun (s, r) -> (s, project_attack r))
           (Attack.seed_sweep ?pool ~seeds p)))

let test_attack_protocol_sweep_deterministic () =
  let ps =
    [
      Flawed.unanimous ~style:Flawed.Rw ~r:1;
      Flawed.unanimous ~style:Flawed.Swapping ~r:2;
      Flawed.first_writer ~r:1;
      Flawed.mixed ~r:2;
    ]
  in
  ignore
    (across_pools (fun pool ->
         List.map (fun (n, r) -> (n, project_attack r)) (Attack.sweep ?pool ps)))

let project_general = function
  | Ok (o : General_attack.outcome) ->
      Ok
        ( General_attack.succeeded o,
          o.processes_used,
          o.registers,
          o.pieces_alpha,
          o.pieces_beta )
  | Error e -> Error (General_attack.error_to_string e)

let test_general_attack_sweep_deterministic () =
  let ps =
    [
      Flawed.unanimous ~style:Flawed.Rw ~r:1;
      Flawed.unanimous ~style:Flawed.Swapping ~r:2;
    ]
  in
  ignore
    (across_pools (fun pool ->
         List.map
           (fun (n, r) -> (n, project_general r))
           (General_attack.sweep ?pool ps)))

let test_minimum_processes_deterministic () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:1 in
  let n =
    across_pools (fun pool ->
        General_attack.minimum_processes ?pool ~limit:60 p)
  in
  Alcotest.(check bool) "found a minimum" true (n <> None)

(* ---- Experiment tables ---- *)

let test_experiment_tables_deterministic () =
  List.iter
    (fun (name, table) ->
      let rendered = across_pools (fun pool -> table pool) in
      Alcotest.(check bool)
        (name ^ " non-empty") true
        (String.length rendered > 0))
    [
      ( "e2",
        fun pool ->
          Stats.Table.render (Experiments.E2_identical_lb.table ?pool ~max_r:2 ()) );
      ( "e3",
        fun pool ->
          Stats.Table.render (Experiments.E3_general_lb.table ?pool ~max_r:1 ()) );
      ( "e4",
        fun pool ->
          Stats.Table.render (Experiments.E4_space.table ?pool ~ns:[ 2; 3 ] ()) );
      ( "e14",
        fun pool ->
          Stats.Table.render
            (Experiments.E14_ablation.table ?pool ~ns:[ 2 ] ~reps:8 ()) );
    ]

(* The parallel-mc cases keep the ids they had when the entry point was
   [Explore.search_par], so results stay comparable across versions. *)
let suite =
  [
    Alcotest.test_case "search_par pool-independent" `Quick
      test_par_pool_independent;
    Alcotest.test_case "search_par = search, all fields" `Quick
      test_par_matches_sequential_fields;
    Alcotest.test_case "search_par depth-0 and witness parity" `Quick
      test_par_depth_zero_and_violation_witness;
    Alcotest.test_case "search_par node budget = sequential" `Quick
      test_par_node_budget_equals_sequential;
    Alcotest.test_case "search_par dedup witness parity" `Quick
      test_par_dedup_witness_parity;
    Alcotest.test_case "attack seed sweep" `Quick
      test_attack_seed_sweep_deterministic;
    Alcotest.test_case "attack protocol sweep" `Quick
      test_attack_protocol_sweep_deterministic;
    Alcotest.test_case "general attack sweep" `Quick
      test_general_attack_sweep_deterministic;
    Alcotest.test_case "minimum_processes" `Quick
      test_minimum_processes_deterministic;
    Alcotest.test_case "experiment tables (e2/e3/e4/e14)" `Quick
      test_experiment_tables_deterministic;
  ]
