(* Units for the resource-governance layer: cancellation tokens, budget
   construction, reason codecs, and the metering discipline (exact
   deterministic limits, poll-boundary best-effort limits, latching). *)

open Robust

let test_cancel_latch () =
  let c = Cancel.create () in
  Alcotest.(check bool) "fresh token unset" false (Cancel.is_set c);
  Cancel.set c;
  Alcotest.(check bool) "set" true (Cancel.is_set c);
  Cancel.set c;
  Alcotest.(check bool) "set is idempotent" true (Cancel.is_set c);
  (* tokens are independent *)
  Alcotest.(check bool) "fresh token unaffected" false
    (Cancel.is_set (Cancel.create ()))

let all_reasons = [ `Depth; `States; `Nodes; `Steps; `Deadline; `Cancelled ]

let test_reason_round_trip () =
  List.iter
    (fun r ->
      let s = Budget.reason_to_string r in
      Alcotest.(check bool) (s ^ " round-trips") true
        (Budget.reason_of_string s = Some r))
    all_reasons;
  Alcotest.(check bool) "garbage rejected" true
    (Budget.reason_of_string "out-of-coffee" = None);
  (* the six strings are pairwise distinct (a collision would corrupt
     checkpoint files silently) *)
  let strings = List.map Budget.reason_to_string all_reasons in
  Alcotest.(check int) "distinct strings" (List.length all_reasons)
    (List.length (List.sort_uniq compare strings))

let test_completeness_merge () =
  Alcotest.(check bool) "exhaustive is left identity" true
    (Budget.merge `Exhaustive (`Truncated `Depth) = `Truncated `Depth);
  Alcotest.(check bool) "first truncation wins" true
    (Budget.merge (`Truncated `Nodes) (`Truncated `Depth) = `Truncated `Nodes);
  Alcotest.(check bool) "exhaustive + exhaustive" true
    (Budget.merge `Exhaustive `Exhaustive = `Exhaustive);
  Alcotest.(check bool) "is_exhaustive" true
    (Budget.is_exhaustive `Exhaustive
    && not (Budget.is_exhaustive (`Truncated `Deadline)));
  Alcotest.(check string) "to_string truncated" "truncated (deadline)"
    (Budget.completeness_to_string (`Truncated `Deadline));
  Alcotest.(check string) "to_string exhaustive" "exhaustive"
    (Budget.completeness_to_string `Exhaustive)

let test_budget_construction () =
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool) "nodes binds" false
    (Budget.is_unlimited (Budget.make ~nodes:5 ()));
  Alcotest.(check bool) "cancel binds" false
    (Budget.is_unlimited (Budget.make ~cancel:(Cancel.create ()) ()));
  (* a relative deadline is stored as an absolute instant in the future *)
  let now = Unix.gettimeofday () in
  let b = Budget.make ~deadline:3600. () in
  Alcotest.(check bool) "deadline absolute" true
    (match b.Budget.deadline with Some d -> d > now +. 3000. | None -> false);
  (* negative deadlines clamp to "already due", not to the past epoch *)
  let b = Budget.make ~deadline:(-5.) () in
  Alcotest.(check bool) "negative deadline clamps to now" true
    (match b.Budget.deadline with Some d -> d >= now -. 1. | None -> false)

let test_node_limit_exact () =
  let m = Budget.Meter.create (Budget.make ~nodes:100 ()) in
  for i = 1 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "tick %d under limit" i)
      true
      (Budget.Meter.tick_node m = None)
  done;
  Alcotest.(check int) "100 counted" 100 (Budget.Meter.nodes m);
  Alcotest.(check bool) "tick 101 trips" true
    (Budget.Meter.tick_node m = Some `Nodes);
  (* the tripped node is NOT counted: the trip point is the resume cursor *)
  Alcotest.(check int) "tripped node uncounted" 100 (Budget.Meter.nodes m);
  Alcotest.(check bool) "latched" true
    (Budget.Meter.tick_node m = Some `Nodes
    && Budget.Meter.tripped m = Some `Nodes)

let test_step_limit_and_latch_shared () =
  let m = Budget.Meter.create (Budget.make ~steps:3 ()) in
  for _ = 1 to 3 do
    Alcotest.(check bool) "step ok" true (Budget.Meter.tick_step m = None)
  done;
  Alcotest.(check bool) "step 4 trips" true
    (Budget.Meter.tick_step m = Some `Steps);
  (* the latch is per-meter, not per-axis: a tripped meter refuses node
     ticks too (a governed run is over, whichever limit ended it) *)
  Alcotest.(check bool) "node tick sees the latch" true
    (Budget.Meter.tick_node m = Some `Steps)

let test_cancel_polled_on_boundary () =
  let c = Cancel.create () in
  let m = Budget.Meter.create ~poll_every:4 (Budget.make ~cancel:c ()) in
  Alcotest.(check bool) "tick at 0 polls, token unset" true
    (Budget.Meter.tick_node m = None);
  Cancel.set c;
  (* counts 1..3 are off the poll boundary: the set token is not yet
     observed — by design, cancellation is best-effort *)
  for _ = 1 to 3 do
    Alcotest.(check bool) "off-boundary tick proceeds" true
      (Budget.Meter.tick_node m = None)
  done;
  Alcotest.(check bool) "boundary tick observes cancellation" true
    (Budget.Meter.tick_node m = Some `Cancelled);
  Alcotest.(check int) "cancelled node uncounted" 4 (Budget.Meter.nodes m)

let test_poll_every_rounds_to_pow2 () =
  (* poll_every:5 rounds up to 8: after the initial boundary poll, a token
     set mid-stride is observed exactly when the count reaches 8 *)
  let c = Cancel.create () in
  let m = Budget.Meter.create ~poll_every:5 (Budget.make ~cancel:c ()) in
  Alcotest.(check bool) "initial poll" true (Budget.Meter.tick_node m = None);
  Cancel.set c;
  for i = 2 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "tick %d off-boundary" i)
      true
      (Budget.Meter.tick_node m = None)
  done;
  Alcotest.(check bool) "tick 9 (count 8) trips" true
    (Budget.Meter.tick_node m = Some `Cancelled)

let test_deadline_trips_and_sets_cancel () =
  let c = Cancel.create () in
  let m =
    Budget.Meter.create ~poll_every:1
      (Budget.make ~deadline:0.02 ~cancel:c ())
  in
  Alcotest.(check bool) "before the deadline" true
    (Budget.Meter.tick_node m = None);
  Unix.sleepf 0.05;
  Alcotest.(check bool) "after the deadline" true
    (Budget.Meter.tick_node m = Some `Deadline);
  (* the deadline trip propagates to the cancel token so pool siblings
     sharing the budget stop claiming chunks *)
  Alcotest.(check bool) "cancel token set by the trip" true (Cancel.is_set c)

let test_zero_deadline_trips_first_poll () =
  (* the regression pin: the deadline check is [>=], so an already-due
     deadline trips the very first poll even when gettimeofday returns
     the same instant [make] stamped — a strict [>] made ~deadline:0.
     (and CLI --deadline 0s) depend on clock granularity *)
  let m = Budget.Meter.create ~poll_every:1 (Budget.make ~deadline:0. ()) in
  Alcotest.(check bool) "first tick trips" true
    (Budget.Meter.tick_node m = Some `Deadline);
  Alcotest.(check int) "no node admitted" 0 (Budget.Meter.nodes m);
  (* step ticks see the same horizon *)
  let m = Budget.Meter.create ~poll_every:1 (Budget.make ~deadline:0. ()) in
  Alcotest.(check bool) "first step tick trips" true
    (Budget.Meter.tick_step m = Some `Deadline)

let test_on_poll_hook_and_polls_counter () =
  (* the --progress vehicle: a budget carrying only an observer hook is
     not unlimited (it needs a meter for its cadence), the hook fires
     once per poll boundary with the consumed counts, and [polls]
     counts exactly those boundary checks *)
  let fired = ref [] in
  let b =
    Budget.make
      ~on_poll:(fun ~nodes ~steps -> fired := (nodes, steps) :: !fired)
      ()
  in
  Alcotest.(check bool) "observer-only budget binds" false
    (Budget.is_unlimited b);
  let m = Budget.Meter.create ~poll_every:2 b in
  for _ = 1 to 5 do
    Alcotest.(check bool) "observer never trips" true
      (Budget.Meter.tick_node m = None)
  done;
  (* boundaries at counts 0, 2, 4 *)
  Alcotest.(check int) "three polls" 3 (Budget.Meter.polls m);
  Alcotest.(check (list (pair int int)))
    "hook saw the consumed counts"
    [ (4, 0); (2, 0); (0, 0) ]
    !fired

let test_guard_raises () =
  let m = Budget.Meter.create (Budget.make ~nodes:1 ()) in
  Budget.Meter.guard_node m;
  Alcotest.check_raises "guard raises Exhausted" (Budget.Exhausted `Nodes)
    (fun () -> Budget.Meter.guard_node m)

let test_unlimited_meter_never_trips () =
  let m = Budget.Meter.create Budget.unlimited in
  for _ = 1 to 10_000 do
    assert (Budget.Meter.tick_node m = None);
    assert (Budget.Meter.tick_step m = None)
  done;
  Alcotest.(check int) "all counted" 10_000 (Budget.Meter.nodes m)

let test_take_nodes_batches () =
  let m = Budget.Meter.create (Budget.make ~nodes:10 ()) in
  Alcotest.(check int) "full batch admitted" 4 (Budget.Meter.take_nodes m 4);
  Alcotest.(check int) "second batch admitted" 4 (Budget.Meter.take_nodes m 4);
  (* only 2 of the last 4 fit; the short count reports the trip *)
  Alcotest.(check int) "partial batch" 2 (Budget.Meter.take_nodes m 4);
  Alcotest.(check bool) "meter tripped" true
    (Budget.Meter.tripped m = Some `Nodes);
  Alcotest.(check int) "nothing after the trip" 0 (Budget.Meter.take_nodes m 4);
  Alcotest.(check int) "exactly the budget was counted" 10
    (Budget.Meter.nodes m);
  (* unlimited: every batch admitted in full *)
  let u = Budget.Meter.create Budget.unlimited in
  Alcotest.(check int) "unlimited admits all" 1000
    (Budget.Meter.take_nodes u 1000)

let suite =
  [
    Alcotest.test_case "cancel token latch" `Quick test_cancel_latch;
    Alcotest.test_case "take_nodes batches" `Quick test_take_nodes_batches;
    Alcotest.test_case "reason string round-trip" `Quick test_reason_round_trip;
    Alcotest.test_case "completeness merge" `Quick test_completeness_merge;
    Alcotest.test_case "budget construction" `Quick test_budget_construction;
    Alcotest.test_case "node limit is exact" `Quick test_node_limit_exact;
    Alcotest.test_case "step limit, shared latch" `Quick
      test_step_limit_and_latch_shared;
    Alcotest.test_case "cancel polled on boundary" `Quick
      test_cancel_polled_on_boundary;
    Alcotest.test_case "poll_every rounds to pow2" `Quick
      test_poll_every_rounds_to_pow2;
    Alcotest.test_case "deadline trips, sets cancel" `Quick
      test_deadline_trips_and_sets_cancel;
    Alcotest.test_case "zero deadline trips first poll" `Quick
      test_zero_deadline_trips_first_poll;
    Alcotest.test_case "on_poll hook + polls counter" `Quick
      test_on_poll_hook_and_polls_counter;
    Alcotest.test_case "guard raises Exhausted" `Quick test_guard_raises;
    Alcotest.test_case "unlimited meter never trips" `Quick
      test_unlimited_meter_never_trips;
  ]
