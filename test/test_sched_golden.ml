(* No-behavior-change pins for the adversary allocation sweep: the
   random / starving / contention schedulers were rewritten from
   list-building [enabled_pids] selection to counting + rank selection
   (one [Rng.int] per step over the same range), so the realized
   schedules must be byte-for-byte what the list-based code produced.
   The golden strings below were recorded against that original code. *)

open Consensus

let realized sched =
  let config =
    Protocol.initial_config Counter_consensus.protocol ~inputs:[ 0; 1; 0 ]
  in
  let r = Sim.Run.exec ~max_steps:200 sched config in
  let buf = Buffer.create 200 in
  List.iter
    (fun (e : int Sim.Event.t) ->
      match e with
      | Sim.Event.Applied { pid; _ } | Sim.Event.Coin { pid; _ } ->
          Buffer.add_string buf (string_of_int pid)
      | _ -> ())
    (Sim.Trace.events r.Sim.Run.trace);
  (r.Sim.Run.steps, Buffer.contents buf)

let golden =
  [
    ( "random",
      (fun seed -> Sim.Sched.random ~seed),
      [
        ( 1,
          165,
          "200211110211221210201102012001112111002012102202121012021202101022011112202010121010102201200110002211111211011211201021222220210112220101011112212000121112020202101"
        );
        (2, 55, "2110011212020010122112120111020020011102122000222021111");
        ( 3,
          123,
          "111200021002020210101022201111012201012002111102211211202222212102002102210122020011012100021122211120001011201202112022112"
        );
      ] );
    ( "starving",
      (fun seed -> Sim.Sched.starving ~victim:0 ~seed),
      [
        (1, 52, "1222111121221221212122122212112111112222112222120000");
        ( 2,
          131,
          "22211222211212212111112211212121121222121221221122112111121112221121211111211111112221112112222211211111221221122221211221212220000"
        );
        (3, 60, "111222122121212211221111111111222111212112211222122222110000");
      ] );
    ( "contention",
      (fun seed -> Sim.Sched.contention ~seed),
      [
        (1, 60, "022210100212122211111111111111111111111111111111110000022222");
        ( 2,
          120,
          "222001112102022211111111111111100000111110000000000111112222200000111112222222222111111111111111111111111111112222200000"
        );
        (3, 64, "0002000122020111222221111111111111111111111111111100000000022222");
      ] );
  ]

let test_adversaries_golden () =
  List.iter
    (fun (name, mk, cases) ->
      List.iter
        (fun (seed, steps, pids) ->
          let s, p = realized (mk seed) in
          Alcotest.(check (pair int string))
            (Printf.sprintf "%s seed=%d" name seed)
            (steps, pids) (s, p))
        cases)
    golden

(* [Config.poised_at] / [Lowerbound.Triviality.poised_at] against their
   list-filter specifications, over configurations advanced to random
   depths. *)
let test_poised_at_spec () =
  let spec_config config obj =
    List.filter
      (fun pid ->
        match Sim.Config.pending config pid with
        | Some (o, _) -> o = obj
        | None -> false)
      (Sim.Config.enabled_pids config)
  in
  let spec_triv config obj =
    List.filter
      (fun pid ->
        match Lowerbound.Triviality.poised_write config pid with
        | Some (o, _) -> o = obj
        | None -> false)
      (Sim.Config.enabled_pids config)
  in
  List.iter
    (fun seed ->
      let config =
        Protocol.initial_config Rw_consensus.protocol ~inputs:[ 0; 1; 1 ]
      in
      let r =
        Sim.Run.exec ~max_steps:(10 * seed) (Sim.Sched.random ~seed) config
      in
      let c = r.Sim.Run.config in
      for obj = 0 to Sim.Config.n_objects c - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "Config.poised_at seed=%d obj=%d" seed obj)
          (spec_config c obj)
          (Sim.Config.poised_at c obj);
        Alcotest.(check (list int))
          (Printf.sprintf "Triviality.poised_at seed=%d obj=%d" seed obj)
          (spec_triv c obj)
          (Lowerbound.Triviality.poised_at c obj)
      done)
    [ 1; 2; 3; 4; 5 ]


(* No-behavior-change pins for the lower-bound adversaries.  Each digest
   is the MD5 of an outcome's shape line plus its full printed trace (or
   of the error message), recorded against the copy-per-step [Builder],
   the [Config]-copying [Solo.search] and the list-filtering
   [Build_interruptible].  Any change to the order in which the
   construction picks poised processes, to the solo search's DFS order or
   to its rng draws changes some trace here. *)

let hex s = Digest.to_hex (Digest.string s)

let general_digest (p : Protocol.t) =
  hex
    (match Lowerbound.General_attack.run p with
    | Error e -> "error:" ^ Lowerbound.General_attack.error_to_string e
    | Ok o ->
        let open Lowerbound.General_attack in
        Printf.sprintf "%d %d %d %d %b\n%s" o.processes_used o.registers
          o.pieces_alpha o.pieces_beta (succeeded o)
          (Sim.Trace.to_string string_of_int o.trace))

let attack_digest ?seed (p : Protocol.t) =
  let rng = Option.map Sim.Rng.create seed in
  hex
    (match Lowerbound.Attack.run ?rng p with
    | Error e -> "error:" ^ Lowerbound.Attack.error_to_string e
    | Ok o ->
        let open Lowerbound.Attack in
        Printf.sprintf "%d %d [%s] [%s] %b\n%s" o.processes_used o.registers
          (String.concat "," (List.map string_of_int o.inputs))
          (String.concat ","
             (List.map
                (fun { Lowerbound.Builder.clone; origin; cutoff } ->
                  Printf.sprintf "%d<%d@%d" clone origin cutoff)
                o.genealogy))
          (succeeded o)
          (Sim.Trace.to_string string_of_int o.trace))

(* the coin path a seeded solo search settles on *)
let solo_digest seed =
  let config =
    Protocol.initial_config Anon_consensus.protocol ~inputs:[ 0; 1 ]
  in
  hex
    (match
       Lowerbound.Solo.terminating ~rng:(Sim.Rng.create seed) config ~pid:0
     with
    | None -> "none"
    | Some { Lowerbound.Solo.coins; decision; steps } ->
        Printf.sprintf "%s %s %d"
          (String.concat "," (List.map string_of_int coins))
          (match decision with Some d -> string_of_int d | None -> "-")
          steps)

let rw r = Flawed.unanimous ~style:Flawed.Rw ~r
let swap r = Flawed.unanimous ~style:Flawed.Swapping ~r
let coin r = Flawed.coin_retry ~style:Flawed.Rw ~r

(* every target of the general-attack suite, then the benchmark's sizes *)
let general_golden =
  [
    (rw 1, "3e3d8b32daebad35997b5b7bca6820e7");
    (rw 2, "d8a68dc4eb8ad4286fdba55a73d23d96");
    (rw 3, "7d9c569062fc682a33de6d5a41137dca");
    (swap 2, "45e4096bf87aa59306cccd1bfe8f473f");
    (swap 3, "b5b9e97924279d1341ce75bb9e608b66");
    (Flawed.first_writer ~r:1, "1cbf2e07ee7cff6cf3045997e5707c61");
    (Flawed.first_writer ~r:2, "10bdd6c30ef8395490aefbfaadebaa2a");
    (coin 2, "d8a68dc4eb8ad4286fdba55a73d23d96");
    (Flawed.mixed ~r:2, "0a445527d9a13e3c25d08794ba0a7221");
    (Flawed.mixed ~r:3, "71d048a59d4c0c01d5bf7d2439888dfc");
    (rw 10, "190e416660fe51c96d1843ff10768a3d");
    (swap 10, "0301dee000dae5c7cf72960d9d5d1474");
    (rw 13, "758de58951a0fe907a81677a6517e5a4");
    (swap 13, "a997f69153b02767e1c58bc6857b9524");
    (rw 16, "75331d4773474ad483851cd6e0868245");
    (swap 16, "74fdfc731db53def477812138b688e62");
  ]

(* (protocol, seed, digest); [None] is the unshuffled search.  The flawed
   targets reach the same witness under every seed; anon-rw's construction
   fails at a seed-dependent process, which pins the rng path. *)
let attack_golden =
  [
    (rw 4, None, "24c827d67f819550af4708668080ee4b");
    (rw 4, Some 1, "24c827d67f819550af4708668080ee4b");
    (swap 3, None, "89b9fd857e425d8456c298003ccecf94");
    (swap 3, Some 1, "89b9fd857e425d8456c298003ccecf94");
    (Flawed.mixed ~r:3, None, "ffec9cf0977026979cdcf1338999590e");
    (Flawed.mixed ~r:3, Some 1, "ffec9cf0977026979cdcf1338999590e");
    (coin 3, None, "0c80a2d340c3e91155c3a19b200e1de4");
    (coin 3, Some 1, "0c80a2d340c3e91155c3a19b200e1de4");
    (Anon_consensus.protocol, None, "1bf8f984564ed642e7c34884a9e5ca56");
    (Anon_consensus.protocol, Some 1, "3265f6d899ea42db75788377bddf4ea7");
    (Anon_consensus.protocol, Some 2, "1bf8f984564ed642e7c34884a9e5ca56");
    (Anon_consensus.protocol, Some 3, "8f88485330f5447e1347b9dfdc2fc7bd");
  ]

let solo_golden =
  [
    (1, "1b3c0590378146bc46739318166d6d2c");
    (2, "5b9bebd3c8c6f464169b6de4f2a84733");
    (3, "1b3c0590378146bc46739318166d6d2c");
    (4, "5b9bebd3c8c6f464169b6de4f2a84733");
  ]

let test_general_attack_golden () =
  List.iter
    (fun ((p : Protocol.t), digest) ->
      Alcotest.(check string) p.Protocol.name digest (general_digest p))
    general_golden

let test_attack_golden () =
  List.iter
    (fun ((p : Protocol.t), seed, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s seed=%s" p.Protocol.name
           (match seed with None -> "-" | Some s -> string_of_int s))
        digest (attack_digest ?seed p))
    attack_golden;
  List.iter
    (fun (seed, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "anon-rw solo seed=%d" seed)
        digest (solo_digest seed))
    solo_golden

let suite =
  [
    Alcotest.test_case "adversary schedules unchanged by sweep" `Quick
      test_adversaries_golden;
    Alcotest.test_case "poised_at matches list-filter spec" `Quick
      test_poised_at_spec;
    Alcotest.test_case "general-attack traces unchanged" `Quick
      test_general_attack_golden;
    Alcotest.test_case "attack traces unchanged" `Quick test_attack_golden;
  ]
