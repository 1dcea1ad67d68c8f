(* Parity of [Explore.decidable_values], which steps a flat slab in place,
   against a closure-configuration referee: the plain DFS over persistent
   [Config.t]s that [Run.step] produces.  [(values, truncated)] must agree
   exactly, under binding and non-binding caps. *)

open Sim
open Consensus

(* --- the referee: closure configurations, no interning, no undo ------ *)

let rec solo ?(max_steps = 300) ?(max_nodes = 5_000) config ~pid ~nodes steps =
  incr nodes;
  if !nodes > max_nodes || steps > max_steps then None
  else
    match config.Config.procs.(pid) with
    | Proc.Decide v -> Some v
    | Proc.Apply _ | Proc.Choose _ ->
        List.find_map
          (fun (config', _) -> solo ~max_steps ~max_nodes config' ~pid ~nodes (steps + 1))
          (Mc.Explore.successors config pid)

let referee ~max_depth ~max_states config =
  let visited = ref 0 and truncated = ref false and values = ref [] in
  let add v = if not (List.mem v !values) then values := v :: !values in
  List.iter add (Config.decisions config);
  List.iter
    (fun pid -> Option.iter add (solo config ~pid ~nodes:(ref 0) 0))
    (Config.enabled_pids config);
  let rec go config depth =
    incr visited;
    if !visited > max_states || depth >= max_depth then truncated := true
    else
      List.iter
        (fun pid ->
          List.iter
            (fun (config', _) ->
              Option.iter add (Config.decision config' pid);
              go config' (depth + 1))
            (Mc.Explore.successors config pid))
        (Config.enabled_pids config)
  in
  go config 0;
  (List.sort compare !values, !truncated)

(* --------------------------------------------------------------------- *)

let check_parity ~what ?(max_depth = 60) ?(max_states = 2_000_000) config =
  let expected = referee ~max_depth ~max_states config in
  let got = Mc.Explore.decidable_values ~max_depth ~max_states config in
  if got <> expected then
    Alcotest.failf "%s (max_depth %d, max_states %d): flat %s, referee %s" what
      max_depth max_states
      (Fmt.str "%a" Fmt.(pair ~sep:sp (Dump.list int) bool) got)
      (Fmt.str "%a" Fmt.(pair ~sep:sp (Dump.list int) bool) expected);
  expected

let binary_vectors n =
  List.init (1 lsl n) (fun bits -> List.init n (fun i -> (bits lsr i) land 1))

(* (max_depth, max_states): state caps 1, 100 and 10^4, and depth cap 3.
   On the randomized protocols every one of them binds.  A configuration
   that one of them leaves complete has a small finite tree, so it is
   compared once more at the default caps, which then do not bind (70
   of the registry's configurations). *)
let caps = [ (60, 1); (60, 100); (60, 10_000); (3, 2_000_000) ]

let test_registry () =
  List.iter
    (fun (p : Protocol.t) ->
      List.iter
        (fun n ->
          if p.Protocol.supports_n n then
            List.iter
              (fun inputs ->
                let config = Protocol.initial_config p ~inputs in
                let what =
                  Printf.sprintf "%s inputs %s" p.Protocol.name
                    (String.concat "," (List.map string_of_int inputs))
                in
                let complete =
                  List.exists
                    (fun (max_depth, max_states) ->
                      not (snd (check_parity ~what ~max_depth ~max_states config)))
                    caps
                in
                if complete then ignore (check_parity ~what config))
              (binary_vectors n))
        [ 2; 3 ])
    Registry.all

(* every depth-<=2 tree of the E12 census, run solo from the empty
   register, as [Enumerate.solo_decisions] runs it *)
let test_e12_solo () =
  let trees = Mc.Enumerate.enumerate 2 in
  Alcotest.(check int) "depth-2 trees" 2774 (List.length trees);
  List.iter
    (fun tree ->
      let config =
        Config.make ~optypes:[ Objects.Register.optype () ]
          ~procs:[ Mc.Enumerate.to_proc tree ]
      in
      let _, truncated = check_parity ~what:"E12 solo tree" ~max_depth:50 config in
      Alcotest.(check bool) "solo tree exhausted" false truncated)
    trees

(* Every state cap from 1 past the tree size, and every depth cap, on
   small trees with coins: some cap falls on each boundary, where an
   off-by-one in the counting or a different child order would change
   [truncated] or which values are reached.  The configurations: every
   pair of depth-1 coin trees on the mixed inputs, and every depth-2 coin
   tree run solo. *)
let test_cap_sweep () =
  let register = [ Objects.Register.optype () ] in
  let sweep ~what config ~states ~depths =
    for max_states = 1 to states do
      ignore (check_parity ~what ~max_states config)
    done;
    for max_depth = 0 to depths do
      ignore (check_parity ~what ~max_depth config)
    done
  in
  let trees1 = Mc.Enumerate.enumerate_randomized 1 in
  List.iter
    (fun t0 ->
      List.iter
        (fun t1 ->
          let config =
            Config.make_seeded ~fp_seeds:[ 0; 1 ] ~optypes:register
              ~procs:[ Mc.Enumerate.to_proc t0; Mc.Enumerate.to_proc t1 ]
          in
          sweep ~what:"depth-1 coin pair" config ~states:30 ~depths:5)
        trees1)
    trees1;
  List.iter
    (fun tree ->
      let config =
        Config.make ~optypes:register ~procs:[ Mc.Enumerate.to_proc tree ]
      in
      sweep ~what:"depth-2 coin tree" config ~states:8 ~depths:3)
    (Mc.Enumerate.enumerate_randomized 2)

(* the exported solo probe under its own step and node caps, on the
   registry protocols and on every depth-2 coin tree, where a probe cut
   short on one coin outcome may still decide on the next *)
let test_solo_caps () =
  let check ~what config ~pid caps =
    List.iter
      (fun (max_steps, max_nodes) ->
        let expected = solo ~max_steps ~max_nodes config ~pid ~nodes:(ref 0) 0 in
        let got = Mc.Explore.solo_decision ~max_steps ~max_nodes config ~pid in
        if got <> expected then
          Alcotest.failf "%s pid %d, max_steps %d, max_nodes %d" what pid
            max_steps max_nodes)
      caps
  in
  let grid steps nodes =
    List.concat_map (fun s -> List.map (fun n -> (s, n)) nodes) steps
  in
  List.iter
    (fun (p : Protocol.t) ->
      if p.Protocol.supports_n 2 then
        let config = Protocol.initial_config p ~inputs:[ 0; 1 ] in
        for pid = 0 to 1 do
          check ~what:p.Protocol.name config ~pid
            (grid [ 0; 1; 2; 3; 5; 8; 13; 300 ] [ 1; 2; 3; 5; 8; 13; 5_000 ])
        done)
    Registry.all;
  List.iter
    (fun tree ->
      let config =
        Config.make ~optypes:[ Objects.Register.optype () ]
          ~procs:[ Mc.Enumerate.to_proc tree ]
      in
      check ~what:"depth-2 coin tree" config ~pid:0
        (grid [ 0; 1; 2; 3 ] [ 1; 2; 3; 5_000 ]))
    (Mc.Enumerate.enumerate_randomized 2)

(* a crashed process takes no steps, but its decision (none here) and the
   other processes' reachable decisions still count *)
let test_crashed () =
  List.iter
    (fun (p, inputs) ->
      let config = Protocol.initial_config p ~inputs in
      let crashed = Config.halt config 0 in
      List.iter
        (fun (max_depth, max_states) ->
          ignore (check_parity ~what:"crashed pid 0" ~max_depth ~max_states crashed))
        ((12, 2_000_000) :: caps);
      let values, _ =
        check_parity ~what:"crashed pid 0" ~max_depth:12 crashed
      in
      Alcotest.(check bool) "survivor still decides" true (values <> []))
    [ (Rw_consensus.protocol, [ 0; 1 ]); (Cas_consensus.protocol, [ 0; 1; 1 ]) ]

let suite =
  [
    Alcotest.test_case "registry protocols, n = 2 and 3" `Quick test_registry;
    Alcotest.test_case "E12 depth-2 solo configs" `Quick test_e12_solo;
    Alcotest.test_case "every cap on small coin trees" `Quick test_cap_sweep;
    Alcotest.test_case "solo probe caps" `Quick test_solo_caps;
    Alcotest.test_case "crashed process" `Quick test_crashed;
  ]
