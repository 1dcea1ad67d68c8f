(* The repository benchmark's worker: builds one workload's operations
   from a seed, runs them in rounds for a fixed time, checks every result
   and writes the measurements as JSON.  [perfbench/run.py] drives it;
   see perfbench/README.md for the workloads, metrics and checks.

     bench.exe ready --workload W [--seed N] [--size full|tiny]
       [--socket PATH]
     bench.exe run   --workload W --seed N --seconds S --trace 0|1
       --out DIR --cli PATH [--socket PATH] [--size full|tiny]
       [--wrong-expect]

   [ready] performs the workload's set-up, prints "ready" and exits;
   run.py times it.  [run] repeats rounds until [--seconds] would be
   exceeded: odd rounds are traced when [--trace 1], even rounds never
   are, so one run yields both the untraced timings and the spans. *)

open Trace

type size = Full | Tiny

(* An operation's check: [Fail] means the result contradicts the paper's
   claim or the exact expected count; [Broken] means two paths of the
   program disagree (served vs direct, jobs 1 vs jobs 2, a shrunk witness
   that does not replay), so its outputs cannot be trusted at all. *)
type verdict = Pass | Fail of string | Broken of string

type op = { name : string; run : unit -> verdict }

let check cond msg = if cond then Pass else Fail msg

(* first non-[Pass] wins *)
let ( &&& ) a b = match a with Pass -> b () | v -> v

(* Values two paths must agree on (e.g. the verdict lines of the jobs-1
   and jobs-2 search of one instance), whichever path runs first. *)
let agreed : (string, string) Hashtbl.t = Hashtbl.create 16

let agree key value =
  match Hashtbl.find_opt agreed key with
  | None ->
      Hashtbl.replace agreed key value;
      Pass
  | Some v when v = value -> Pass
  | Some v -> Broken (Printf.sprintf "%s: %S vs %S" key v value)

let protocol name =
  match Consensus.Registry.find name with
  | Some p -> p
  | None -> failwith ("unknown protocol " ^ name)

let csv l = String.concat "," (List.map string_of_int l)

let lines_of s =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* ---- subprocesses: the CLI for the jobs-2 searches ---- *)

(** [hwm_kb path] reads VmHWM (peak RSS, KiB) from a /proc status file;
    0 when the process is gone or /proc is missing. *)
let hwm_kb path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      List.find_map
        (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
        (String.split_on_char '\n' status)
      |> Option.value ~default:0

(* peak RSS (KiB) of the current operation's processes *)
let op_peak_kb = ref 0
let note_peak kb = op_peak_kb := max !op_peak_kb kb

(** [spawn argv] runs a program to completion: (exit code, stdout,
    children CPU seconds it used).  Its peak RSS is polled every 10 ms
    while it runs, since a reaped child's is gone. *)
let spawn argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let before = Unix.times () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let status_file = Printf.sprintf "/proc/%d/status" pid in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    note_peak (hwm_kb status_file);
    match Unix.select [ r ] [] [] 0.01 with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let after = Unix.times () in
  let cpu =
    after.Unix.tms_cutime +. after.Unix.tms_cstime
    -. (before.Unix.tms_cutime +. before.Unix.tms_cstime)
  in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, Buffer.contents buf, cpu)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let field key line =
  (* "visited=12 leaves=0 ..." -> Some 12 for key "visited" *)
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
          int_of_string_opt
            (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

(* ------------------------------------------------------------ mc-deep *)

(* A few long exhaustive searches, each at jobs 1 (the sequential
   [Mc.Explore.search], in process) and jobs 2 (the CLI's [--jobs 2],
   whatever engine sits behind it).  Per-node layers do all the work. *)
type search = {
  proto : string;
  inputs : int list;
  depth : int;
  max_states : int;
  dedup : [ `Exact | `Symmetric ];
  visited : int option;  (** exact jobs-1 node count, pinned *)
}

let mc_deep ~size ~cli ~wrong =
  let searches =
    match size with
    | Full ->
        [
          {
            proto = "rw-3n";
            inputs = List.init 7 (fun _ -> 0);
            depth = 13;
            max_states = 100_000_000;
            dedup = `Symmetric;
            visited = Some 3_748_403;
          };
          {
            proto = "counter-3";
            inputs = [ 0; 1; 0 ];
            depth = 24;
            max_states = 2_000_000;
            dedup = `Exact;
            visited = Some 2_000_013;
          };
        ]
    | Tiny ->
        [
          {
            proto = "rw-3n";
            inputs = [ 0; 0; 0 ];
            depth = 8;
            max_states = 100_000;
            dedup = `Symmetric;
            visited = None;
          };
          {
            proto = "counter-3";
            inputs = [ 0; 1; 0 ];
            depth = 10;
            max_states = 100_000;
            dedup = `Exact;
            visited = None;
          };
        ]
  in
  List.concat_map
    (fun s ->
      let config = Consensus.Protocol.initial_config (protocol s.proto) ~inputs:s.inputs in
      (* the paper's claim: validity holds on these inputs; the smoke
         test's [--wrong-expect] claims the opposite for the first one *)
      let expect_safe = not (wrong && s.proto = "rw-3n") in
      let claim tail =
        check
          (List.mem "no violation found" tail = expect_safe)
          (if expect_safe then "violation reported" else "expected a violation")
      in
      let key = s.proto ^ " verdict" in
      let j1 =
        {
          name = "mc." ^ s.proto ^ ".j1";
          run =
            (fun () ->
              let r =
                timed ("mc.j1_s." ^ s.proto) (fun () ->
                    span ~layer:"mc" "mc.search" (fun () ->
                        Mc.Explore.search ~dedup:(s.dedup :> Mc.Explore.dedup)
                          ~max_depth:s.depth ~max_states:s.max_states
                          ~inputs:s.inputs config))
              in
              let visited = r.Mc.Explore.visited in
              add "mc.visited.j1" (float_of_int visited);
              add "mc.table_hits" (float_of_int r.Mc.Explore.table_hits);
              add "mc.table_misses" (float_of_int r.Mc.Explore.table_misses);
              let report = Serve.Job.mc_report r in
              let status = report.Serve.Job.status in
              let tail = List.tl report.Serve.Job.lines in
              claim tail
              &&& (fun () ->
                    match s.visited with
                    | Some v when v <> visited ->
                        Fail (Printf.sprintf "visited %d, expected %d" visited v)
                    | _ -> Pass)
              &&& fun () ->
              agree key
                (String.concat "|"
                   (string_of_int status :: tail)));
        }
      in
      let argv =
        [|
          cli; "mc"; s.proto; "--inputs"; csv s.inputs; "--depth";
          string_of_int s.depth; "--max-states"; string_of_int s.max_states;
          "--dedup";
          (match s.dedup with `Exact -> "exact" | `Symmetric -> "symmetric");
          "--jobs"; "2";
        |]
      in
      let j2 =
        {
          name = "mc." ^ s.proto ^ ".j2";
          run =
            (fun () ->
              let t0 = now () in
              let code, out, cpu =
                span ~layer:"par" "par.cli_mc_jobs2" (fun () -> spawn argv)
              in
              let wall = now () -. t0 in
              add ("mc.j2_s." ^ s.proto) wall;
              add "par.cpu_s" cpu;
              add "par.wall_s" wall;
              match lines_of out with
              | [] -> Broken (Printf.sprintf "no output, exit %d" code)
              | stats :: tail ->
                  add "mc.visited.j2"
                    (float_of_int (Option.value (field "visited" stats) ~default:0));
                  claim tail
                  &&& fun () ->
                  agree key (String.concat "|" (string_of_int code :: tail)));
        }
      in
      [ j1; j2 ])
    searches

(* ------------------------------------------------------------- tables *)

(* Digests of each experiment table at full size, rendered by
   [Stats.Table.render]: the reproduced numbers may not drift. *)
let table_digests =
  [
    ("e1", "0555f0c8381f9cd7ac295061b3e8ee63");
    ("e2", "5346ba58c07aa3f8cde6e6407d2ef650");
    ("e3", "c5945aaff71d3498f392e96e50e3fd34");
    ("e4", "71fd87cb94f04a0a7f372a8cf1cb930a");
    ("e5", "4e9d6e592fee0057cfc0190d2a67c909");
    ("e6", "5f7233b9652b2667d344bd6d684a6968");
    ("e7", "160c1a4d7c20467a0c8fa34c6083c866");
    ("e8", "d7906ad8c7498bfd889296f8ec62f114");
    ("e9", "8126f0fecb844255274b7dd9d2e0bb9a");
    ("e10", "44d228183b0fd1f428309b86b26c572d");
    ("e11", "d1c565e11bb89f9d9322a4ff7df18982");
    ("e13", "467cdea81eb1e3a89ef12f5bdd03b021");
    ("e14", "d457f97019c28cd89b9d71cafbaf2239");
  ]

let tables ~size ~seed =
  let full = size = Full in
  let experiments =
    List.filter_map
      (fun (spec : Experiments.All.spec) ->
        if spec.Experiments.All.id = "e12" then None
        else
          let id = spec.Experiments.All.id in
          Some
            {
              name = "experiments." ^ id;
              run =
                (fun () ->
                  let table =
                    timed ("experiments." ^ id ^ "_s") (fun () ->
                        span ~layer:"experiments" ("experiments." ^ id)
                          (fun () -> spec.Experiments.All.run ~pool:None ~quick:(not full)))
                  in
                  let digest = Digest.to_hex (Digest.string (Stats.Table.render table)) in
                  match List.assoc_opt id table_digests with
                  | Some d when full && d <> digest ->
                      Fail ("table differs from the pinned digest, now " ^ digest)
                  | _ -> agree ("table " ^ id) digest);
            })
      Experiments.All.specs
  in
  (* E12 over a fixed prefix of the depth-2 trees: the full census is
     ~1.7M checks.  Paper claim: no bounded protocol is correct. *)
  let prefix = if full then 400 else 40 in
  let trees =
    List.filteri (fun i _ -> i < prefix) (Mc.Enumerate.enumerate_trees ~coins:false 2)
  in
  let census =
    {
      name = "experiments.e12";
      run =
        (fun () ->
          let c =
            timed "experiments.e12_s" (fun () ->
                timed "mc.search_span_s" (fun () ->
                    span ~layer:"mc" "mc.census" (fun () ->
                        Mc.Enumerate.census_of_trees ~depth:2 trees)))
          in
          (* one solo search per tree per filter, one check per solo-valid
             tree and per unanimity survivor pair *)
          let searches =
            (2 * c.Mc.Enumerate.trees) + c.Mc.Enumerate.valid_solo_0
            + c.Mc.Enumerate.valid_solo_1 + c.Mc.Enumerate.survive_unanimous
          in
          add "mc.searches" (float_of_int searches);
          check (c.Mc.Enumerate.correct = 0) "a bounded protocol passed the census"
          &&& fun () ->
          agree "census"
            (Printf.sprintf "%d/%d/%d" c.Mc.Enumerate.candidate_pairs
               c.Mc.Enumerate.survive_unanimous c.Mc.Enumerate.correct));
    }
  in
  (* every protocol the paper calls correct, n = 2, inputs 0,1 *)
  let safety =
    List.map
      (fun (p : Consensus.Protocol.t) ->
        let name = p.Consensus.Protocol.name in
        let config = Consensus.Protocol.initial_config p ~inputs:[ 0; 1 ] in
        let depth = if full then 30 else 12 in
        {
          name = "mc.safety." ^ name;
          run =
            (fun () ->
              let r =
                timed "mc.search_span_s" (fun () ->
                    span ~layer:"mc" "mc.search" (fun () ->
                        Mc.Explore.search ~dedup:`Exact ~max_depth:depth
                          ~inputs:[ 0; 1 ] config))
              in
              add "mc.searches" 1.;
              add "mc.safety_visited" (float_of_int r.Mc.Explore.visited);
              match r.Mc.Explore.violation with
              | None -> Pass
              | Some v ->
                  Fail
                    (Printf.sprintf "%s witness after %d nodes"
                       (match v.Mc.Explore.kind with
                       | `Inconsistent -> "inconsistent"
                       | `Invalid -> "invalid")
                       r.Mc.Explore.visited));
        })
      Consensus.Registry.correct
  in
  let rs = if full then [ 10; 13; 16 ] else [ 2; 3 ] in
  let general =
    {
      name = "lowerbound.general_attack";
      run =
        (fun () ->
          let targets =
            List.concat_map
              (fun r ->
                [
                  Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r;
                  Consensus.Flawed.unanimous ~style:Consensus.Flawed.Swapping ~r;
                ])
              rs
          in
          let results =
            timed "lowerbound.general_attack_s" (fun () ->
                span ~layer:"lowerbound" "lowerbound.general_attack" (fun () ->
                    Lowerbound.General_attack.sweep targets))
          in
          List.fold_left
            (fun acc (name, res) ->
              acc &&& fun () ->
              match res with
              | Ok o -> check (Lowerbound.General_attack.succeeded o) (name ^ ": attack failed")
              | Error e -> Fail (name ^ ": " ^ Lowerbound.General_attack.error_to_string e))
            Pass results);
    }
  in
  let n_seeds = if full then 8192 else 64 in
  let seeds = List.init n_seeds (fun i -> (seed * n_seeds) + i + 1) in
  let seed_sweep =
    {
      name = "lowerbound.seed_sweep";
      run =
        (fun () ->
          let results =
            timed "lowerbound.seed_sweep_s" (fun () ->
                span ~layer:"lowerbound" "lowerbound.seed_sweep" (fun () ->
                    Lowerbound.Attack.seed_sweep ~seeds
                      (Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:4)))
          in
          let ok =
            List.length
              (List.filter
                 (function _, Ok o -> Lowerbound.Attack.succeeded o | _, Error _ -> false)
                 results)
          in
          check (ok = n_seeds)
            (Printf.sprintf "attack landed on %d of %d seeds" ok n_seeds));
    }
  in
  let synth =
    {
      name = "synth.rw_depth2";
      run =
        (fun () ->
          let budget = Robust.Budget.make ~nodes:(if full then 4000 else 200) () in
          let r =
            timed "synth_s" (fun () ->
                span ~layer:"synth" "synth.cegis" (fun () ->
                    Synth.Cegis.search ~budget ~style:Consensus.Dtree.Rw ~registers:1
                      ~depth:2 ~coins:false ~max_procs:4 ~seed:1 ()))
          in
          let rows = r.Synth.Cegis.rows in
          let count f = List.fold_left (fun a row -> a + f row) 0 rows in
          let candidates = count (fun row -> row.Synth.Cegis.candidates) in
          add "synth.candidates" (float_of_int candidates);
          add "synth.pruned" (float_of_int (count (fun row -> row.Synth.Cegis.pruned)));
          (* paper: one read-write register cannot solve 2-consensus *)
          check (r.Synth.Cegis.frontier = 1)
            (Printf.sprintf "frontier %d for one rw register" r.Synth.Cegis.frontier)
          &&& fun () -> agree "synth report" (String.concat "|" (Synth.Cegis.report r)));
    }
  in
  experiments @ [ census ] @ safety @ [ general; seed_sweep; synth ]

(* --------------------------------------------------------------- fuzz *)

(* Seeded campaigns at jobs 1: many random single runs through the same
   sim layer mc walks depth-first. *)
let fuzz ~size ~seed =
  let k = if size = Full then 1 else 20 in
  let find ?inputs name =
    match Fuzz.Scenario.find ?inputs name with
    | Ok s -> s
    | Error e -> failwith e
  in
  let campaign ~label scen runs =
    let c =
      timed ("fuzz_s." ^ label) (fun () ->
          span
            ~layer:(if String.length label > 4 && String.sub label 0 4 = "lin-"
                    then "lin_objimpl" else "fuzz")
            ("fuzz.campaign." ^ label)
            (fun () -> Fuzz.Campaign.run ~shrink:false ~runs ~seed scen))
    in
    add ("fuzz.runs." ^ label) (float_of_int c.Fuzz.Campaign.runs_done);
    add ("fuzz.violations." ^ label) (float_of_int c.Fuzz.Campaign.violations);
    c
  in
  let safe ~label ?inputs name runs =
    let runs = max 1 (runs / k) in
    let scen = find ?inputs name in
    {
      name = "fuzz." ^ label;
      run =
        (fun () ->
          let c = campaign ~label scen runs in
          let v = c.Fuzz.Campaign.violations in
          check (v = 0)
            (Printf.sprintf "%d of %d runs violate" v c.Fuzz.Campaign.runs_done));
    }
  in
  let planted = find "lin-collect-counter" in
  let planted_runs = 4000 in
  [
    safe ~label:"counter-3" ~inputs:[ 0; 1; 0 ] "counter-3" 5000;
    safe ~label:"rw-3n" ~inputs:[ 0; 1; 0; 1 ] "rw-3n" 2000;
    safe ~label:"lin-tas-rand" "lin-tas-rand" 20000;
    {
      name = "fuzz.lin-collect-counter";
      run =
        (fun () ->
          let c = campaign ~label:"lin-collect-counter" planted planted_runs in
          match c.Fuzz.Campaign.first_violation with
          | None -> Fail "planted bug not found"
          | Some cx -> (
              let replay = planted.Fuzz.Scenario.replay in
              let target = cx.Fuzz.Campaign.violation in
              let shrunk, stats =
                timed "fuzz.shrink_s" (fun () ->
                    span ~layer:"fuzz" "fuzz.shrink" (fun () ->
                        Fuzz.Shrink.minimize ~replay ~target cx.Fuzz.Campaign.original))
              in
              add "fuzz.shrink.candidates" (float_of_int stats.Fuzz.Shrink.candidates);
              match replay shrunk with
              | Some v when v = target -> Pass
              | _ -> Broken "shrunk schedule does not replay the violation"));
    };
  ]

(* -------------------------------------------------------------- serve *)

(* One connection to a [randsync serve] daemon.  Each round first sends
   closed-loop bursts: a fixed job list, one job in flight at a time,
   timed from the first send to the last verdict.  With one job in
   flight, no two daemon threads compete for the runtime lock, whose
   50 ms tick would otherwise set the time.  Then it climbs a
   ladder of fixed rates, open loop: jobs are sent at seeded Poisson
   arrival times whatever the replies, and latency runs from when a job
   was due.  A rate whose backlog passes [backlog_cap] stops early
   (before the daemon's admission queue of 64 would shed) and fails the
   rate. *)

let p99_limit_ms = 250.
let backlog_cap = 32

type served = {
  job : int;  (** index into the job table *)
  due : float;
  rate : int;  (** 0: a burst job *)
  mutable sent : float;
  mutable accepted : float;
}

let serve_jobs ~size ~seed =
  let mc =
    {
      Serve.Job.spec =
        Serve.Job.Mc
          { (Serve.Job.mc_defaults ~protocol:"counter-3") with
            Serve.Job.mc_inputs = [ 0; 1 ];
            mc_depth = 10;
          };
      deadline = None;
    }
  in
  let fuzz s =
    {
      Serve.Job.spec =
        Serve.Job.Fuzz
          { (Serve.Job.fuzz_defaults ~scenario:"lin-tas-rand") with
            Serve.Job.fz_runs = (if size = Full then 1500 else 100);
            fz_seed = s;
          };
      deadline = None;
    }
  in
  Array.of_list (mc :: List.init 8 (fun i -> fuzz ((seed * 8) + i + 1)))

let kind_of i = if i = 0 then "mc" else "fuzz"

(** Direct [Job.execute] of every job in the table: the oracle for the
    served verdicts and the [serve.exec_ms] layer numbers. *)
let direct_outcomes jobs =
  Array.mapi
    (fun i job ->
      let reps = if i = 0 then 20 else 1 in
      let outs =
        List.init reps (fun _ ->
            timed ("serve.exec_s." ^ kind_of i) (fun () ->
                span ~layer:"serve" "serve.execute" (fun () -> Serve.Job.execute job)))
      in
      List.hd outs)
    jobs

(* The ladder's rates (jobs/s).  Latency is reported at [lo] and [hi],
   the highest rate the daemon sustained when the benchmark was written;
   the rungs above it find where the daemon saturates. *)
let rates = function Full -> [ 25; 50; 100; 200; 400; 800 ] | Tiny -> [ 20; 40 ]
let lo_rate size = List.hd (rates size)
let hi_rate = function Full -> 100 | Tiny -> 40

(* A burst: a fixed list in the ladder's mix, 85% mc and 15% fuzz jobs
   spread over the seeded fuzz jobs; the seed only shuffles its order. *)
let burst_jobs = function
  | Full -> Array.init 100 (fun i -> if i < 85 then 0 else 1 + (i mod 8))
  | Tiny -> Array.init 20 (fun i -> if i < 17 then 0 else 1 + (i mod 8))

let bursts = function Full -> 6 | Tiny -> 1

let serve_round ~size ~seed ~round ~conn ~jobs ~expected ~note =
  let step_s = match size with Full -> 2.0 | Tiny -> 0.4 in
  let rng = Random.State.make [| seed; round; 7 |] in
  let m = Stdlib.Mutex.create () and cv = Condition.create () in
  let pending = Queue.create () (* sent, awaiting Accepted/Overloaded *) in
  let by_id : (int, served) Hashtbl.t = Hashtbl.create 256 in
  let outstanding = ref 0 in
  let receiver_error = ref None in
  let finish () =
    decr outstanding;
    Condition.broadcast cv
  in
  let receiver () =
    let rec loop () =
      match Serve.Client.recv conn with
      | Error e -> receiver_error := Some e
      | Ok reply -> (
          let t = now () in
          Stdlib.Mutex.lock m;
          (match reply with
          | Serve.Wire.Accepted { id } ->
              let s = Queue.pop pending in
              s.accepted <- t;
              Hashtbl.replace by_id id s
          | Serve.Wire.Overloaded _ | Serve.Wire.Draining ->
              let s = Queue.pop pending in
              note ("serve.job." ^ kind_of s.job) (Fail "shed by the daemon");
              add "serve.shed" 1.;
              finish ()
          | Serve.Wire.Verdict { id; status; lines } -> (
              match Hashtbl.find_opt by_id id with
              | None -> receiver_error := Some (Printf.sprintf "verdict for unknown job %d" id)
              | Some s ->
                  Hashtbl.remove by_id id;
                  let latency = t -. s.due in
                  let kind = kind_of s.job in
                  let want : Serve.Job.outcome = expected.(s.job) in
                  add ("serve.accept_s") (s.accepted -. s.sent);
                  if s.rate > 0 then begin
                    add (Printf.sprintf "serve.latency_s.%d" s.rate) latency;
                    add ("serve.latency_s." ^ kind ^ "." ^ string_of_int s.rate) latency
                  end;
                  if !on then begin
                    let w0 = now () in
                    let frame =
                      Serve.Wire.encode_request
                        (Serve.Wire.Submit { job = jobs.(s.job); detach = false })
                    in
                    ignore (Serve.Wire.decode_request frame);
                    ignore
                      (Serve.Wire.decode_reply
                         (Serve.Wire.encode_reply reply));
                    let w1 = now () in
                    add "serve.wire_s" (w1 -. w0);
                    record ~layer:"serve_daemon" ~op:s.job ("serve.job." ^ kind) s.due t;
                    record ~layer:"serve" ~op:s.job "serve.wire" w0 w1
                  end;
                  note ("serve.job." ^ kind)
                    (if status = want.Serve.Job.status && lines = want.Serve.Job.lines
                     then Pass
                     else Broken "served verdict differs from a direct Job.execute");
                  finish ())
          | Serve.Wire.Progress _ -> ()
          | Serve.Wire.Pong -> receiver_error := Some "pong"
          | Serve.Wire.Error { message } -> receiver_error := Some message
          | _ -> receiver_error := Some "unexpected reply");
          let go_on = !receiver_error = None in
          Stdlib.Mutex.unlock m;
          if go_on then loop ())
    in
    loop ();
    Stdlib.Mutex.lock m;
    Condition.broadcast cv;
    Stdlib.Mutex.unlock m
  in
  let th = Thread.create receiver () in
  (* [submit s] sends under [m]: the receiver pops [pending] under [m],
     so this keeps the FIFO aligned with the daemon's replies *)
  let submit s =
    incr outstanding;
    s.sent <- now ();
    Queue.push s pending;
    Serve.Client.send conn (Serve.Wire.Submit { job = jobs.(s.job); detach = false })
  in
  let drain () =
    Stdlib.Mutex.lock m;
    while !outstanding > 0 && !receiver_error = None do
      Condition.wait cv m
    done;
    Stdlib.Mutex.unlock m
  in
  for _ = 1 to bursts size do
    let t0 = now () in
    List.iter
      (fun job ->
        drain ();
        Stdlib.Mutex.lock m;
        if !receiver_error = None then
          submit { job; due = now (); rate = 0; sent = 0.; accepted = 0. };
        Stdlib.Mutex.unlock m)
      (shuffle rng (Array.to_list (burst_jobs size)));
    drain ();
    let t1 = now () in
    Stdlib.Mutex.lock m;
    add "serve.burst_s" (t1 -. t0);
    Stdlib.Mutex.unlock m
  done;
  let failed_rates = ref [] in
  List.iter
    (fun rate ->
      let t_start = now () in
      let due = ref t_start in
      let stop = ref false in
      while not !stop do
        due := !due -. (log (1. -. Random.State.float rng 1.) /. float_of_int rate);
        if !due -. t_start > step_s then stop := true
        else begin
          let job = if Random.State.float rng 1. < 0.15 then 1 + Random.State.int rng 8 else 0 in
          let wait = !due -. now () in
          if wait > 0. then Thread.delay wait;
          Stdlib.Mutex.lock m;
          if !outstanding >= backlog_cap || !receiver_error <> None then begin
            failed_rates := rate :: !failed_rates;
            stop := true;
            Stdlib.Mutex.unlock m
          end
          else begin
            let s = { job; due = !due; rate; sent = 0.; accepted = 0. } in
            submit s;
            add "serve.gen_late_s" (s.sent -. s.due);
            Stdlib.Mutex.unlock m;
            record ~layer:"serve" ~op:job "serve.send" s.sent (now ())
          end
        end
      done;
      (* drain this rate before the next one *)
      drain ())
    (rates size);
  (* stop the receiver: a Ping's Pong is the last reply it reads *)
  Stdlib.Mutex.lock m;
  let err = !receiver_error in
  Stdlib.Mutex.unlock m;
  (match err with
  | Some e -> raise (Failure ("serve connection: " ^ e))
  | None ->
      Serve.Client.send conn Serve.Wire.Ping);
  (* the receiver stops at the Pong *)
  Thread.join th;
  List.iter (fun r -> add ("serve.failed_rate." ^ string_of_int r) 1.) !failed_rates

(* --------------------------------------------------- forked operations *)

let gc_sample g0 g1 =
  add "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  add "gc.major_gcs" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  add "gc.top_heap_words" (float_of_int g1.Gc.top_heap_words)

let child_run (op : op) w =
  let known = Hashtbl.copy agreed in
  Hashtbl.reset untraced;
  Hashtbl.reset traced;
  spans := [];
  next_id := !current_op * 100_000;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let v = try span ~layer:"bench" op.name op.run with e -> Broken (Printexc.to_string e) in
  let dt = now () -. t0 in
  gc_sample g0 (Gc.quick_stat ());
  note_peak (hwm_kb "/proc/self/status");
  let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let fresh =
    Hashtbl.fold (fun k v acc -> if Hashtbl.mem known k then acc else (k, v) :: acc) agreed []
  in
  let oc = Unix.out_channel_of_descr w in
  Marshal.to_channel oc (v, dt, !op_peak_kb, dump untraced, dump traced, !spans, fresh) [];
  close_out oc

(** [run_forked op] runs [op] in a forked copy of the worker, as a fresh
    [randsync] process would run it: heap, GC state and the engines'
    intern tables start where set-up left them, so an operation's time
    and peak RSS do not depend on the operations before it.  The copy
    sends back its verdict, time, peak RSS (KiB), samples, spans and new
    agreements. *)
let run_forked (op : op) =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (* never return into the worker's stack *)
      (try child_run op w with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match res with
      | None -> (Broken "the forked operation died", 0., 0)
      | Some (v, dt, peak, u, t, sp, fresh) ->
          let merge tbl =
            List.iter (fun (k, l) ->
                Hashtbl.replace tbl k
                  (l @ Option.value (Hashtbl.find_opt tbl k) ~default:[]))
          in
          merge untraced u;
          merge traced t;
          spans := sp @ !spans;
          List.iter (fun (k, x) -> Hashtbl.replace agreed k x) fresh;
          (v, dt, peak))

(* ---------------------------------------------------------------- main *)

let args = Array.to_list Sys.argv

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let flag name = List.mem name args
let die msg = prerr_endline ("bench: " ^ msg); exit 2

let () =
  let mode = match args with _ :: m :: _ -> m | _ -> die "usage: bench.exe ready|run ..." in
  let workload = Option.value (opt "--workload") ~default:"" in
  let seed = Option.value (Option.bind (opt "--seed") int_of_string_opt) ~default:1 in
  let size = match opt "--size" with Some "tiny" -> Tiny | _ -> Full in
  let wrong = flag "--wrong-expect" in
  let cli = Option.value (opt "--cli") ~default:"randsync" in
  let socket = opt "--socket" in
  Trace.workload := workload;
  (* set-up: everything the first operation needs *)
  let ops, serve_conn =
    match workload with
    | "mc-deep" -> (mc_deep ~size ~cli ~wrong, None)
    | "tables" -> (tables ~size ~seed, None)
    | "fuzz" -> (fuzz ~size ~seed, None)
    | "serve" -> (
        let path = match socket with Some p -> p | None -> die "serve needs --socket" in
        match Serve.Client.connect (`Unix path) with
        | Error e -> die ("connect: " ^ e)
        | Ok conn -> (
            Serve.Client.send conn Serve.Wire.Ping;
            match Serve.Client.recv conn with
            | Ok Serve.Wire.Pong -> ([], Some conn)
            | _ -> die "daemon did not answer ping"))
    | w -> die ("unknown workload " ^ w)
  in
  if mode = "ready" then begin
    print_endline "ready";
    exit 0
  end;
  if mode <> "run" then die ("unknown mode " ^ mode);
  let seconds = Option.value (Option.bind (opt "--seconds") float_of_string_opt) ~default:10. in
  let trace = opt "--trace" = Some "1" in
  let out = match opt "--out" with Some d -> d | None -> die "run needs --out" in
  (* per-operation outcomes *)
  let attempted = ref 0 and failures = Hashtbl.create 8 and broken = ref false in
  (* outcomes of the untraced rounds alone, for [fail_frac] *)
  let u_attempted = ref 0 and u_failed = ref 0 in
  let note name v =
    incr attempted;
    if not !on then incr u_attempted;
    match v with
    | Pass -> ()
    | Fail msg | Broken msg ->
        if not !on then incr u_failed;
        (match v with Broken _ -> broken := true | _ -> ());
        let n, _ = Option.value (Hashtbl.find_opt failures name) ~default:(0, msg) in
        Hashtbl.replace failures name (n + 1, msg)
  in
  let serve_state =
    Option.map
      (fun conn ->
        let jobs = serve_jobs ~size ~seed in
        (conn, jobs, direct_outcomes jobs))
      serve_conn
  in
  (* A round's wall time, on every workload but serve: the sum of its
     operations' times, each in its own forked copy. *)
  let round_body round =
    match serve_state with
    | Some (conn, jobs, expected) ->
        let g0 = Gc.quick_stat () in
        serve_round ~size ~seed ~round ~conn ~jobs ~expected ~note;
        gc_sample g0 (Gc.quick_stat ())
    | None ->
        let wall = ref 0. in
        List.iteri
          (fun i op ->
            current_op := (round * 1000) + i + 1;
            let v, dt, peak = run_forked op in
            add ("op_s." ^ op.name) dt;
            add ("op_peak_kb." ^ op.name) (float_of_int peak);
            wall := !wall +. dt;
            note op.name v)
          (shuffle (Random.State.make [| seed; round |]) ops);
        add "round_s" !wall
  in
  let t_start = now () in
  let min_rounds = if trace then 2 else 1 in
  let rec rounds k =
    on := trace && k mod 2 = 1;
    let t0 = now () in
    round_body k;
    on := false;
    add "round_elapsed_s" (now () -. t0);
    let est = List.fold_left max 0. (get "round_elapsed_s") in
    if k + 1 < min_rounds || now () -. t_start +. est <= seconds then rounds (k + 1)
    else k + 1
  in
  let n_rounds = rounds 0 in
  Option.iter (fun (conn, _, _) -> Serve.Client.close conn) serve_state;
  (* ---- metrics ---- *)
  let metrics = ref [] in
  let put name unit value samples = metrics := (name, unit, value, samples) :: !metrics in
  let med ?only name = median (get ?only name) in
  let n ?only name = List.length (get ?only name) in
  (* what one round's time is made of: serve's closed-loop bursts, else
     the whole round *)
  let round_series = if serve_state <> None then "serve.burst_s" else "round_s" in
  let walls = get ~only:`Untraced round_series in
  (* serve: the median burst.  Else a typical round: the sum of each
     operation's median over the untraced rounds, which shrugs off a slow
     round better than the median round does.  (Each operation's fastest
     time was tried and spread more from run to run: the fast rounds come
     and go with the host's load.) *)
  let wall =
    if serve_state <> None then median walls
    else sum (List.map (fun (op : op) -> med ~only:`Untraced ("op_s." ^ op.name)) ops)
  in
  put "wall_s" "s" wall (List.length walls);
  put "fail_frac" "ratio" (float_of_int !u_failed /. float_of_int (max 1 !u_attempted)) !u_attempted;
  (* per-operation series: medians per round, summed over the searches *)
  let sum_medians prefix =
    Hashtbl.fold
      (fun k v acc ->
        if String.length k > String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then acc +. median v
        else acc)
      untraced 0.
  in
  let per_round name = sum (get name) /. float_of_int n_rounds in
  (match workload with
  | "mc-deep" ->
      put "mc.j1_s" "s" (sum_medians "mc.j1_s.") (n "mc.j1_s.rw-3n");
      put "mc.j2_s" "s" (sum_medians "mc.j2_s.") (n "mc.j2_s.rw-3n");
      let v1 = per_round "mc.visited.j1" and v2 = per_round "mc.visited.j2" in
      let t1 = sum (List.concat_map get [ "mc.j1_s.rw-3n"; "mc.j1_s.counter-3" ]) in
      put "mc.ns_per_node" "ns" (t1 /. (sum (get "mc.visited.j1")) *. 1e9) (n "mc.visited.j1");
      put "mc.us_per_search" "us" (t1 /. float_of_int (n "mc.visited.j1") *. 1e6) (n "mc.visited.j1");
      put "mc.visited.j1" "count" v1 n_rounds;
      put "mc.visited.j2" "count" v2 n_rounds;
      let hits = sum (get "mc.table_hits") and misses = sum (get "mc.table_misses") in
      put "mc.hit_ratio" "ratio" (hits /. Float.max 1. (hits +. misses)) n_rounds;
      put "mc.par_redundancy" "ratio" (v2 /. Float.max 1. v1) n_rounds;
      put "par.cpu_util" "ratio" (sum (get "par.cpu_s") /. (2. *. sum (get "par.wall_s"))) (n "par.wall_s")
  | "tables" ->
      List.iter
        (fun (id, _) -> put ("experiments." ^ id ^ "_s") "s" (med ("experiments." ^ id ^ "_s")) n_rounds)
        (("e12", "") :: table_digests);
      put "mc.us_per_search" "us"
        (sum (get "mc.search_span_s") /. Float.max 1. (sum (get "mc.searches")) *. 1e6)
        (n "mc.search_span_s");
      put "mc.visited.safety" "count" (per_round "mc.safety_visited") n_rounds;
      put "lowerbound.general_attack_s" "s" (med "lowerbound.general_attack_s") n_rounds;
      put "lowerbound.seed_sweep_s" "s" (med "lowerbound.seed_sweep_s") n_rounds;
      put "synth.us_per_candidate" "us"
        (sum (get "synth_s") /. Float.max 1. (sum (get "synth.candidates")) *. 1e6) n_rounds;
      put "synth.prune_ratio" "ratio"
        (sum (get "synth.pruned") /. Float.max 1. (sum (get "synth.candidates"))) n_rounds
  | "fuzz" ->
      List.iter
        (fun l ->
          put ("fuzz.us_per_run." ^ l) "us"
            (med ("fuzz_s." ^ l) /. Float.max 1. (med ("fuzz.runs." ^ l)) *. 1e6)
            n_rounds;
          put ("fuzz.violations." ^ l) "count" (med ("fuzz.violations." ^ l)) n_rounds;
          put ("fuzz.peak_rss_mb." ^ l) "MB" (med ("op_peak_kb.fuzz." ^ l) /. 1024.) n_rounds)
        [ "counter-3"; "rw-3n"; "lin-tas-rand"; "lin-collect-counter" ];
      put "fuzz.shrink_s" "s" (med "fuzz.shrink_s") n_rounds;
      put "fuzz.shrink.candidates" "count" (med "fuzz.shrink.candidates") n_rounds
  | "serve" ->
      let rates = rates size and lo = lo_rate size and hi = hi_rate size in
      let lat r =
        List.map (fun s -> s *. 1000.) (get ~only:`Untraced (Printf.sprintf "serve.latency_s.%d" r))
      in
      put "serve.p50_ms.lo" "ms" (median (lat lo)) (List.length (lat lo));
      put "serve.p99_ms.lo" "ms" (quantile 0.99 (lat lo)) (List.length (lat lo));
      put "serve.p50_ms.hi" "ms" (median (lat hi)) (List.length (lat hi));
      put "serve.p99_ms.hi" "ms" (quantile 0.99 (lat hi)) (List.length (lat hi));
      (* highest rung such that it and every lower rung met the limit *)
      let max_rate =
        List.fold_left
          (fun (ok, best) r ->
            let pass =
              ok && get ~only:`Untraced ("serve.failed_rate." ^ string_of_int r) = []
              && quantile 0.99 (lat r) <= p99_limit_ms
            in
            (pass, if pass then r else best))
          (true, 0) rates
        |> snd
      in
      put "serve.max_rate" "1/s" (float_of_int max_rate) n_rounds;
      List.iter
        (fun r ->
          put (Printf.sprintf "serve.p99_ms.r%d" r) "ms" (quantile 0.99 (lat r)) (List.length (lat r)))
        rates;
      List.iter
        (fun k ->
          let e = med ("serve.exec_s." ^ k) in
          put ("serve.exec_ms." ^ k) "ms" (e *. 1000.) (n ("serve.exec_s." ^ k));
          let served =
            List.map (fun s -> s *. 1000.) (get ~only:`Untraced (Printf.sprintf "serve.latency_s.%s.%d" k lo))
          in
          put ("serve.overhead_ms." ^ k) "ms" (median served -. (e *. 1000.)) (List.length served))
        [ "mc"; "fuzz" ];
      put "serve.accept_ms" "ms" (med ~only:`Untraced "serve.accept_s" *. 1000.) (n ~only:`Untraced "serve.accept_s");
      put "serve.wire_us" "us" (med ~only:`Traced "serve.wire_s" *. 1e6) (n ~only:`Traced "serve.wire_s");
      put "serve.shed" "count" (sum (get "serve.shed")) n_rounds;
      put "serve.gen_late_ms" "ms" (quantile 0.99 (get ~only:`Untraced "serve.gen_late_s") *. 1000.) (n ~only:`Untraced "serve.gen_late_s")
  | _ -> ());
  put "gc.minor_mw" "Mwords" (per_round "gc.minor_words" /. 1e6) n_rounds;
  put "gc.major_gcs" "count" (per_round "gc.major_gcs") n_rounds;
  put "gc.top_heap_mb" "MB"
    (List.fold_left max 0. (get "gc.top_heap_words") *. float_of_int (Sys.word_size / 8) /. 1048576.)
    n_rounds;
  (* the largest operation's typical peak: max over operations of the
     median over rounds (serve: the daemon's, measured by run.py) *)
  if serve_state = None then
    put "peak_rss_mb" "MB"
      (List.fold_left (fun acc (op : op) -> Float.max acc (med ("op_peak_kb." ^ op.name))) 0. ops /. 1024.)
      n_rounds;
  if trace then begin
    let tr = med ~only:`Traced round_series in
    put "obs.trace_overhead" "ratio" ((tr /. Float.max 1e-9 (median walls)) -. 1.) n_rounds;
    write_spans (Filename.concat out "spans.jsonl")
  end;
  (* ---- result file ---- *)
  let oc = open_out (Filename.concat out "result.json") in
  let fails =
    Hashtbl.fold
      (fun name (c, msg) acc ->
        Printf.sprintf "{\"op\":%s,\"count\":%d,\"message\":%s}" (json_string name) c (json_string msg) :: acc)
      failures []
  in
  Printf.fprintf oc
    "{\"workload\":%s,\"seed\":%d,\"rounds\":%d,\"attempted\":%d,\"failed\":%d,\"consistent\":%b,\"failures\":[%s],\"round_s\":{\"untraced\":[%s],\"traced\":[%s]},\"op_s\":{%s},\"metrics\":{%s}}\n"
    (json_string workload) seed n_rounds !attempted
    (Hashtbl.fold (fun _ (c, _) a -> a + c) failures 0)
    (not !broken) (String.concat "," fails)
    (String.concat "," (List.rev_map json_float walls))
    (String.concat "," (List.rev_map json_float (get ~only:`Traced round_series)))
    (String.concat ","
       (List.map
          (fun (op : op) ->
            Printf.sprintf "%s:[%s]" (json_string op.name)
              (String.concat "," (List.rev_map json_float (get ("op_s." ^ op.name)))))
          ops))
    (String.concat ","
       (List.rev_map
          (fun (name, unit, value, samples) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s,\"samples\":%d}" (json_string name)
              (json_float value) (json_string unit) samples)
          !metrics));
  close_out oc
