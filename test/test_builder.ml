(* [Builder] owns one private configuration and steps it in place.  The
   ownership contract: the caller's configuration is never written, a
   snapshot survives the steps taken after it, and an attack's outcome
   configuration is never written once the attack has returned. *)

open Sim
open Consensus
open Lowerbound

(* a deep copy to compare against later; process states are immutable,
   so physical equality per slot is the exact check for them *)
let same_config what (expected : int Config.t) (got : int Config.t) =
  Alcotest.(check int) (what ^ ": n_procs") (Config.n_procs expected)
    (Config.n_procs got);
  Alcotest.(check bool) (what ^ ": objects") true
    (Array.for_all2 Value.equal expected.Config.objects got.Config.objects);
  Alcotest.(check bool) (what ^ ": procs") true
    (Array.for_all2 ( == ) expected.Config.procs got.Config.procs);
  Alcotest.(check bool) (what ^ ": halted") true
    (expected.Config.halted = got.Config.halted);
  Alcotest.(check bool) (what ^ ": fingerprints") true
    (expected.Config.fps = got.Config.fps)

let protocol = Flawed.unanimous ~style:Flawed.Rw ~r:2
let inputs = [ 0; 1; 0 ]
let fresh () = Protocol.initial_config protocol ~inputs

(* every process takes a few steps, in turn *)
let step_everyone b =
  for _ = 1 to 3 do
    for pid = 0 to Builder.n_procs b - 1 do
      if Config.is_enabled (Builder.config b) pid then Builder.step b ~pid ()
    done
  done

let test_create_copies () =
  let config = fresh () in
  let before = Config.copy config in
  let b = Builder.create ~config ~inputs in
  step_everyone b;
  ignore (Builder.clones_of b ~pids:[ 0 ]);
  Alcotest.(check bool) "builder advanced" true
    (Trace.steps (Builder.trace b) > 0);
  same_config "caller's config after create + steps" before config

let test_snapshot_restore () =
  let b = Builder.create ~config:(fresh ()) ~inputs in
  Builder.step b ~pid:0 ();
  let snap = Builder.snapshot b in
  let config = Config.copy (Builder.config b) in
  let state b =
    ( Trace.to_string string_of_int (Builder.trace b),
      Builder.inputs b,
      List.map
        (fun { Builder.clone; origin; cutoff } -> (clone, origin, cutoff))
        (Builder.genealogy b),
      List.init (Builder.n_procs b) (Builder.steps_of b) )
  in
  let expected = state b in
  let check what =
    same_config what config (Builder.config b);
    Alcotest.(check bool) (what ^ ": trace, inputs, genealogy, steps") true
      (state b = expected)
  in
  (* steps, a write-recording step and clones after the snapshot *)
  step_everyone b;
  ignore (Builder.clone_last_writers b ~objs:[ 0 ]);
  ignore (Builder.clones_of b ~pids:[ 1; 2 ]);
  Builder.restore b snap;
  check "restored";
  (* a snapshot is not consumed by its restore *)
  step_everyone b;
  Builder.restore b snap;
  check "restored twice"

let test_outcome_config_frozen () =
  let general = Flawed.mixed ~r:2
  and identical = Flawed.unanimous ~style:Flawed.Rw ~r:2 in
  match (General_attack.run general, Attack.run identical) with
  | Ok g, Ok a ->
      let g_before = Config.copy g.General_attack.config
      and a_before = Config.copy a.Attack.config in
      (* more constructions on this domain, then a second look *)
      ignore (General_attack.run general);
      ignore (Attack.run identical);
      same_config "general outcome" g_before g.General_attack.config;
      same_config "identical outcome" a_before a.Attack.config
  | Error e, _ -> Alcotest.fail (General_attack.error_to_string e)
  | _, Error e -> Alcotest.fail (Attack.error_to_string e)

let suite =
  [
    Alcotest.test_case "create copies the caller's config" `Quick
      test_create_copies;
    Alcotest.test_case "snapshot/restore round trip" `Quick
      test_snapshot_restore;
    Alcotest.test_case "outcome config never mutated" `Quick
      test_outcome_config_frozen;
  ]
