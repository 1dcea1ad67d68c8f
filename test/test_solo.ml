(* [Solo.search] walks only what a solo run can change: the process term
   and the object values.  This pins it against a deliberately naive
   reference that copies the whole configuration through [Run.step] at
   every node — same DFS order, same rng draws, same node and step
   accounting, so the same answer under every bound. *)

open Sim
open Consensus
open Lowerbound

(* The reference search.  Returns the answer and the nodes visited. *)
let reference ?(max_steps = 2_000) ?(max_nodes = 200_000) ?meter
    ?(stop = fun _ _ -> false) ?rng config ~pid =
  let nodes = ref 0 in
  let order n =
    let order = Array.init n Fun.id in
    Option.iter (fun rng -> Rng.shuffle rng order) rng;
    order
  in
  let rec go config rev_coins steps =
    Option.iter Robust.Budget.Meter.guard_step meter;
    incr nodes;
    let found decision =
      Some { Solo.coins = List.rev rev_coins; decision; steps }
    in
    if !nodes > max_nodes || steps > max_steps then None
    else if Config.is_decided config pid then found (Config.decision config pid)
    else if stop config pid then found None
    else
      let step o = fst (Run.step config ~pid ~coin:(fun _ -> o)) in
      match config.Config.procs.(pid) with
      | Proc.Decide _ -> assert false
      | Proc.Apply _ -> go (step 0) rev_coins (steps + 1)
      | Proc.Choose { n; _ } ->
          let order = order n in
          let rec try_outcome idx =
            if idx >= n then None
            else
              let o = order.(idx) in
              match go (step o) (o :: rev_coins) (steps + 1) with
              | Some _ as found -> found
              | None -> try_outcome (idx + 1)
          in
          try_outcome 0
  in
  let found = go config [] 0 in
  (found, !nodes)

(* the goal predicates, once on configurations (reference) and once on
   process terms (the search) *)
let stops =
  let outside_0 config pid =
    match Triviality.poised_write config pid with
    | Some (obj, _) -> obj <> 0
    | None -> false
  in
  [
    ("none", None, None);
    ( "poised_anywhere",
      Some (fun config pid -> Triviality.poised_write config pid <> None),
      Some Solo.poised_anywhere );
    ("poised_outside [0]", Some outside_0, Some (Solo.poised_outside [ 0 ]));
  ]

let seeds = [ None; Some 1; Some 2; Some 3 ]
let rng_of = Option.map Rng.create

(* every registry protocol, from its initial configuration and from two
   randomly advanced ones (objects no longer at their initial values) *)
let configs () =
  List.concat_map
    (fun (p : Protocol.t) ->
      let inputs = if p.Protocol.supports_n 3 then [ 0; 1; 1 ] else [ 0; 1 ] in
      let init = Protocol.initial_config p ~inputs in
      let advanced k =
        (Run.exec ~max_steps:k (Sched.random ~seed:k) init).Run.config
      in
      List.map
        (fun (label, c) -> (Printf.sprintf "%s %s" p.Protocol.name label, c))
        [ ("init", init); ("after 5", advanced 5); ("after 20", advanced 20) ])
    Registry.all

let show = function
  | None -> "None"
  | Some { Solo.coins; decision; steps } ->
      Printf.sprintf "coins=[%s] decision=%s steps=%d"
        (String.concat "," (List.map string_of_int coins))
        (match decision with Some d -> string_of_int d | None -> "-")
        steps

let check_same what (expected, expected_nodes) (got, got_nodes) =
  Alcotest.(check string) what (show expected) (show got);
  Alcotest.(check int) (what ^ " nodes") expected_nodes got_nodes

(* the search under test, with the nodes it counted *)
let searched ?max_steps ?max_nodes ?stop ?rng config ~pid =
  let found, work =
    Work.measure (fun () ->
        Solo.search ?max_steps ?max_nodes ?stop ?rng config ~pid)
  in
  (found, work.Work.solo_nodes)

let test_parity () =
  List.iter
    (fun (label, config) ->
      for pid = 0 to Config.n_procs config - 1 do
        List.iter
          (fun (stop_name, ref_stop, stop) ->
            List.iter
              (fun seed ->
                let what =
                  Printf.sprintf "%s P%d stop=%s seed=%s" label pid stop_name
                    (match seed with None -> "-" | Some s -> string_of_int s)
                in
                let max_nodes = 3_000 and max_steps = 400 in
                let expected =
                  reference ~max_nodes ~max_steps ?stop:ref_stop
                    ?rng:(rng_of seed) config ~pid
                in
                let got =
                  searched ~max_nodes ~max_steps ?stop ?rng:(rng_of seed)
                    config ~pid
                in
                check_same what expected got;
                (* bounds that just bind or just fail to: the same
                   answers, [None] included *)
                match fst expected with
                | None -> ()
                | Some { Solo.steps; _ } ->
                    let nodes = snd expected in
                    List.iter
                      (fun (max_nodes, max_steps) ->
                        check_same
                          (Printf.sprintf "%s max_nodes=%d max_steps=%d" what
                             max_nodes max_steps)
                          (reference ~max_nodes ~max_steps ?stop:ref_stop
                             ?rng:(rng_of seed) config ~pid)
                          (searched ~max_nodes ~max_steps ?stop
                             ?rng:(rng_of seed) config ~pid))
                      [
                        (nodes - 1, max_steps);
                        (nodes, max_steps);
                        (max_nodes, steps);
                        (max_nodes, steps - 1);
                      ])
              seeds)
          stops
      done)
    (configs ())

(* the search reads the configuration and never writes it *)
let test_config_untouched () =
  List.iter
    (fun (label, config) ->
      let before = Config.copy config in
      for pid = 0 to Config.n_procs config - 1 do
        ignore (Solo.search ~max_nodes:3_000 ~rng:(Rng.create 1) config ~pid)
      done;
      Alcotest.(check bool)
        (label ^ " objects unchanged") true
        (config.Config.objects = before.Config.objects);
      Alcotest.(check bool)
        (label ^ " processes unchanged") true
        (Array.for_all2 ( == ) config.Config.procs before.Config.procs))
    (configs ())

(* a metered budget trip still unwinds with [Exhausted], at the same node
   as the reference, rather than reading as "no witness" *)
let test_metered_trip () =
  let config =
    Protocol.initial_config
      (Flawed.unanimous ~style:Flawed.Rw ~r:3)
      ~inputs:[ 0; 1 ]
  in
  let meter () = Robust.Budget.Meter.create (Robust.Budget.make ~steps:3 ()) in
  let tripped f =
    let m = meter () in
    match f m with
    | _ -> None
    | exception Robust.Budget.Exhausted reason ->
        Some
          (Robust.Budget.reason_to_string reason, Robust.Budget.Meter.steps m)
  in
  let expected =
    tripped (fun meter -> ignore (reference ~meter config ~pid:0))
  in
  let got = tripped (fun meter -> ignore (Solo.search ~meter config ~pid:0)) in
  let tripped = Alcotest.(option (pair string int)) in
  Alcotest.check tripped "reference trips" (Some ("steps", 3)) expected;
  Alcotest.check tripped "search trips alike" expected got

let suite =
  [
    Alcotest.test_case "search = naive reference, every registry protocol"
      `Quick test_parity;
    Alcotest.test_case "search leaves the configuration untouched" `Quick
      test_config_untouched;
    Alcotest.test_case "metered trip raises Exhausted" `Quick test_metered_trip;
  ]
