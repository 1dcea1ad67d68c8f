(* The flat engine's per-search fixed cost.  The E12 census, the valency
   probes and the CEGIS loop run tens of thousands of tiny searches, so
   what one search allocates before it visits a node matters as much as
   its per-node cost.  Tables that started at 1024 slots put about 6,100
   words per search into the major heap; the intern and transposition
   tables now start small and double on demand. *)

open Mc

(* A tenth of the old ~6,100 words per search. *)
let major_words_bound = 610.

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* 1,000 tiny searches: every ordered pair of depth-1 trees on the mixed
   input vector, and each depth-1 tree against itself on both unanimous
   vectors, under all three dedup modes. *)
let tiny_checks () =
  let trees = Enumerate.enumerate 1 in
  let pairs =
    List.concat_map
      (fun t0 ->
        List.map (fun t1 -> (t0, t1, [ 0; 1 ])) trees
        @ [ (t0, t0, [ 0; 0 ]); (t0, t0, [ 1; 1 ]) ])
      trees
  in
  List.concat_map
    (fun dedup -> List.map (fun (t0, t1, inputs) -> (dedup, t0, t1, inputs)) pairs)
    [ `Symmetric; `Exact; `Off ]

let test_major_words_per_search () =
  (* the 3 x 224 checks, cycled up to 1,000 *)
  let checks = tiny_checks () in
  let checks = List.filteri (fun i _ -> i < 1000) (checks @ checks) in
  Alcotest.(check int) "1,000 searches" 1000 (List.length checks);
  let run () =
    List.iter
      (fun (dedup, t0, t1, inputs) ->
        ignore (Enumerate.check_inputs ~dedup t0 t1 inputs : bool))
      checks
  in
  run ();
  let before = major_words () in
  run ();
  let per_search = (major_words () -. before) /. 1000. in
  if per_search >= major_words_bound then
    Alcotest.failf "%.0f major-heap words per tiny search (bound %.0f)"
      per_search major_words_bound

(* Tables grown from their small start answer every hit and miss
   exactly.  These searches force thousands of states, so the intern
   tables and the transposition index double many times; the counters
   are the ones the same searches gave when every table started at 1024
   slots, and any lost or phantom entry would move them. *)
let test_grown_tables_exact () =
  let config =
    Consensus.Protocol.initial_config Consensus.Counter_consensus.protocol
      ~inputs:[ 0; 1; 0 ]
  in
  List.iter
    (fun (dedup, name, visited, hits, misses) ->
      let r = Explore.search ~dedup ~max_depth:14 ~inputs:[ 0; 1 ] config in
      Alcotest.(check (list int))
        (name ^ ": visited, leaves, hits, misses")
        [ visited; 0; hits; misses ]
        [ r.Explore.visited; r.Explore.leaves; r.Explore.table_hits;
          r.Explore.table_misses ])
    [
      (`Exact, "exact", 35568, 9917, 10819);
      (`Symmetric, "symmetric", 18181, 5131, 5532);
    ]

let test_atbl_grown_exact () =
  let width = 3 in
  let t = Atbl.create ~width () in
  let key i = [| i; i * 7; -i |] in
  (* a deliberately poor hash, 16 values for 5,000 keys: long shared
     probe chains across every doubling of the index *)
  let hash i = i land 15 in
  let n = 5000 in
  for i = 0 to n - 1 do
    Alcotest.(check int) "absent before insert" (-1) (Atbl.find t ~hash:(hash i) (key i));
    let o = Atbl.insert t ~hash:(hash i) (key i) in
    Atbl.set_meta t o i
  done;
  for i = 0 to n - 1 do
    let o = Atbl.find t ~hash:(hash i) (key i) in
    if o < 0 || Atbl.meta t o <> i then Alcotest.failf "key %d lost after growth" i
  done;
  for i = n to (2 * n) - 1 do
    if Atbl.find t ~hash:(hash i) (key i) <> -1 then
      Alcotest.failf "key %d found but never inserted" i
  done

let suite =
  [
    Alcotest.test_case "major words per tiny search" `Quick
      test_major_words_per_search;
    Alcotest.test_case "grown search tables exact" `Quick test_grown_tables_exact;
    Alcotest.test_case "grown Atbl exact" `Quick test_atbl_grown_exact;
  ]
