(* Standalone runner for the parallel-determinism suite.  Its dune stanza
   runs it under OCAMLRUNPARAM=b with RANDSYNC_JOBS=2 so CI exercises the
   multi-domain code paths with backtraces on. *)

let () =
  Alcotest.run "randsync-determinism"
    [
      ("par-determinism", Test_par_determinism.suite);
      ("obs-determinism", Test_obs_determinism.suite);
      ("synth-determinism", Test_synth_determinism.suite);
    ]
