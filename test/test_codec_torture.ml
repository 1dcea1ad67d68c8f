(* Codec torture: truncated, interleaved and trailing-garbage input
   against every codec that crosses a process boundary — the serve wire
   protocol (and the JSON layer under it), the fuzz-schedule files and
   the mc checkpoint files.  The invariant is the same everywhere: a
   damaged artifact is a loud error, never a crash and never a silent
   partial parse.  Byte-prefix sweeps allow exactly one escape hatch:
   a prefix may parse iff it decodes to the original value (losing only
   the trailing newline is not corruption). *)

let contains = Test_util.contains

(* ---- wire frames ---- *)

let sample_job =
  {
    Serve.Job.spec =
      Serve.Job.Mc
        {
          (Serve.Job.mc_defaults ~protocol:"counter-3") with
          Serve.Job.mc_inputs = [ 0; 1 ];
          mc_depth = 12;
        };
    deadline = Some 30.;
  }

let sample_requests =
  [
    Serve.Wire.Ping;
    Serve.Wire.Submit { job = sample_job; detach = true };
    Serve.Wire.Submit
      {
        job =
          {
            Serve.Job.spec =
              Serve.Job.Fuzz (Serve.Job.fuzz_defaults ~scenario:"flawed");
            deadline = None;
          };
        detach = false;
      };
    Serve.Wire.Status { id = None };
    Serve.Wire.Status { id = Some 3 };
    Serve.Wire.Result { id = 7 };
    Serve.Wire.Cancel { id = 9 };
    Serve.Wire.Drain;
  ]

let sample_replies =
  [
    Serve.Wire.Pong;
    Serve.Wire.Accepted { id = 12 };
    Serve.Wire.Overloaded { queued = 64; limit = 64 };
    Serve.Wire.Draining;
    Serve.Wire.Progress { id = 1; nodes = 5000; steps = 123 };
    Serve.Wire.Verdict
      {
        id = 2;
        status = 3;
        lines = [ "visited=200 leaves=0"; "verdict: truncated (nodes)" ];
      };
    Serve.Wire.Jobs
      {
        draining = true;
        jobs =
          [
            { Serve.Wire.id = 1; label = "mc counter-3"; state = Serve.Wire.Running };
            { Serve.Wire.id = 2; label = "fuzz flawed"; state = Serve.Wire.Done 2 };
            { Serve.Wire.id = 3; label = "mc rw-3n"; state = Serve.Wire.Interrupted };
          ];
      };
    Serve.Wire.Cancelled { id = 4 };
    Serve.Wire.Error { message = "bad frame: trailing garbage" };
  ]

let test_wire_round_trip () =
  List.iter
    (fun req ->
      match Serve.Wire.decode_request (Serve.Wire.encode_request req) with
      | Ok req' ->
          Alcotest.(check bool) "request round-trips" true (req = req')
      | Error e -> Alcotest.failf "request failed to round-trip: %s" e)
    sample_requests;
  List.iter
    (fun reply ->
      match Serve.Wire.decode_reply (Serve.Wire.encode_reply reply) with
      | Ok reply' ->
          Alcotest.(check bool) "reply round-trips" true (reply = reply')
      | Error e -> Alcotest.failf "reply failed to round-trip: %s" e)
    sample_replies

(* every proper byte prefix of every frame must be refused — a JSON
   object cut anywhere never balances its braces *)
let test_wire_truncation_sweep () =
  let sweep kind decode frame =
    for n = 0 to String.length frame - 1 do
      match decode (String.sub frame 0 n) with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s prefix %d/%d of %s silently parsed" kind n
            (String.length frame) frame
    done
  in
  List.iter
    (fun r -> sweep "request" Serve.Wire.decode_request (Serve.Wire.encode_request r))
    sample_requests;
  List.iter
    (fun r -> sweep "reply" Serve.Wire.decode_reply (Serve.Wire.encode_reply r))
    sample_replies

let expect_wire_error name decoded =
  match decoded with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: silently parsed" name

let test_wire_trailing_garbage_and_interleaving () =
  let ping = Serve.Wire.encode_request Serve.Wire.Ping in
  let drain = Serve.Wire.encode_request Serve.Wire.Drain in
  expect_wire_error "trailing garbage"
    (Serve.Wire.decode_request (ping ^ " x"));
  expect_wire_error "trailing digits" (Serve.Wire.decode_request (ping ^ "42"));
  expect_wire_error "two frames interleaved on one line"
    (Serve.Wire.decode_request (ping ^ drain));
  expect_wire_error "two frames space-separated"
    (Serve.Wire.decode_request (ping ^ " " ^ drain));
  expect_wire_error "duplicate frame as suffix"
    (Serve.Wire.decode_reply
       (Serve.Wire.encode_reply Serve.Wire.Pong
       ^ Serve.Wire.encode_reply Serve.Wire.Pong))

let test_wire_version_and_shape () =
  expect_wire_error "future protocol version"
    (Serve.Wire.decode_request {|{"v":2,"type":"ping"}|});
  expect_wire_error "missing version"
    (Serve.Wire.decode_request {|{"type":"ping"}|});
  expect_wire_error "unknown frame type"
    (Serve.Wire.decode_request {|{"v":1,"type":"reboot"}|});
  expect_wire_error "request decoded as reply"
    (Serve.Wire.decode_reply {|{"v":1,"type":"ping"}|});
  expect_wire_error "id of the wrong type"
    (Serve.Wire.decode_request {|{"v":1,"type":"result","id":"7"}|});
  expect_wire_error "submit without a job"
    (Serve.Wire.decode_request {|{"v":1,"type":"submit","detach":true}|});
  expect_wire_error "not an object" (Serve.Wire.decode_request {|[1,2,3]|});
  expect_wire_error "empty line" (Serve.Wire.decode_request "")

(* the strict JSON layer under the wire: resource caps and the control
   characters a line-framed protocol must never let through *)
let test_json_strictness () =
  let expect_json_error name text =
    match Serve.Json.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: silently parsed" name
  in
  expect_json_error "overdeep nesting"
    (String.make 70 '[' ^ String.make 70 ']');
  (match Serve.Json.parse (String.make 10 '[' ^ String.make 10 ']') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sane nesting refused: %s" e);
  expect_json_error "raw control char in string" "\"a\x01b\"";
  expect_json_error "unterminated string" {|{"a":"b|};
  expect_json_error "trailing comma" {|{"a":1,}|};
  expect_json_error "bare identifier" "verdict";
  expect_json_error "two documents" "{} {}"

(* \uXXXX decoding: paired surrogates become one UTF-8 code point, and a
   lone or misordered surrogate is a loud parse error (RFC 8259 §8.2) —
   never CESU-8 bytes smuggled through as string content *)
let test_json_surrogates () =
  let expect_json_error name text =
    match Serve.Json.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: silently parsed" name
  in
  let decoded name text =
    match Serve.Json.parse text with
    | Ok (Serve.Json.String s) -> s
    | Ok _ -> Alcotest.failf "%s: parsed to a non-string" name
    | Error e -> Alcotest.failf "%s: refused: %s" name e
  in
  (* U+1F600 as a pair -> the four UTF-8 bytes F0 9F 98 80 *)
  Alcotest.(check string) "paired surrogates decode astral"
    "\xf0\x9f\x98\x80"
    (decoded "emoji pair" {|"\ud83d\ude00"|});
  (* BMP escapes still single-unit *)
  Alcotest.(check string) "BMP escape" "\xe2\x82\xac"
    (decoded "euro sign" {|"\u20ac"|});
  expect_json_error "lone high surrogate" {|"\ud83d"|};
  expect_json_error "lone low surrogate" {|"\ude00"|};
  expect_json_error "reversed pair" {|"\ude00\ud83d"|};
  expect_json_error "high surrogate then non-escape" {|"\ud83dx"|};
  expect_json_error "high surrogate then non-u escape" {|"\ud83d\n"|};
  expect_json_error "high surrogate at end of string" {|"a\ud83d"|};
  (* printer/parser agreement: escape emits exactly what parse accepts,
     so any valid-UTF-8 payload round-trips through the ASCII wire form *)
  List.iter
    (fun payload ->
      let wire = Serve.Json.to_string (Serve.Json.String payload) in
      String.iter
        (fun ch ->
          if Char.code ch >= 0x80 then
            Alcotest.failf "wire form of %S is not pure ASCII: %s" payload
              wire)
        wire;
      match Serve.Json.parse wire with
      | Ok (Serve.Json.String s) ->
          Alcotest.(check string) "print/parse round-trip" payload s
      | Ok _ -> Alcotest.fail "round-trip changed the shape"
      | Error e -> Alcotest.failf "printer emitted unparseable %s: %s" wire e)
    [ "plain"; "caf\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80";
      "mixed \xf0\x9f\x98\x80 tail" ]

(* ---- synth lemma files ---- *)

let lemma_error name text =
  match Synth.Lemma.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged lemma file" name

let test_lemma_torture () =
  let pool =
    [
      {
        Synth.Lemma.source = "synth:rw:r1:d0|d1";
        inputs = [ 0; 1 ];
        schedule = [ `Step (0, None); `Step (1, Some 1); `Crash 0 ];
      };
      {
        Synth.Lemma.source = "synth:swap:r1:d0|d1";
        inputs = [ 0; 0; 1 ];
        schedule = [];
      };
    ]
  in
  let text = Synth.Lemma.to_text pool in
  Alcotest.(check bool) "round-trips" true (Synth.Lemma.of_text text = pool);
  (* byte-prefix sweep: a prefix parses iff it decodes the whole pool *)
  for n = 0 to String.length text - 1 do
    let prefix = String.sub text 0 n in
    match Synth.Lemma.of_text prefix with
    | parsed ->
        if parsed <> pool then
          Alcotest.failf "byte prefix %d silently parsed to a different pool"
            n
    | exception Sim.Trace_io.Parse_error _ -> ()
  done;
  lemma_error "garbage after end" (text ^ "L x inputs=0 sched=\n");
  lemma_error "count too large"
    (String.concat "\n"
       [ "randsync-lemmas v1"; "count 3";
         "L p inputs=0,1 sched=s0"; "end"; "" ]);
  lemma_error "count too small"
    (String.concat "\n"
       [ "randsync-lemmas v1"; "count 0";
         "L p inputs=0,1 sched=s0"; "end"; "" ]);
  lemma_error "bad entry" "randsync-lemmas v1\ncount 1\nL p inputs=0 sched=x9\nend\n";
  lemma_error "empty inputs" "randsync-lemmas v1\ncount 1\nL p inputs= sched=\nend\n";
  lemma_error "wrong magic" "randsync-schedule v1\ncount 0\nend\n";
  lemma_error "empty file" "";
  (* CRLF tolerance, like every other line codec *)
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "CRLF tolerated" true
    (Synth.Lemma.of_text crlf = pool)

(* ---- fuzz-schedule files ---- *)

let schedule_error name text =
  match Fuzz.Schedule.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged schedule %S" name text

let test_schedule_torture () =
  let sched = [ `Step (0, None); `Step (1, Some 1); `Crash 2; `Step (0, Some 0) ] in
  let text = Fuzz.Schedule.to_text sched in
  (* byte-prefix sweep: parse iff the result is the original schedule *)
  for n = 0 to String.length text - 1 do
    match Fuzz.Schedule.of_text (String.sub text 0 n) with
    | exception Sim.Trace_io.Parse_error _ -> ()
    | sched' ->
        if sched' <> sched then
          Alcotest.failf "schedule prefix %d/%d parsed to a different witness"
            n (String.length text)
  done;
  (* dropping whole tail lines is exactly the v1 silent-truncation hole
     the count line closes *)
  let lines = String.split_on_char '\n' (String.trim text) in
  List.iteri
    (fun k _ ->
      if k >= 2 && k < List.length lines then
        schedule_error
          (Printf.sprintf "first %d lines only" k)
          (String.concat "\n" (List.filteri (fun i _ -> i < k) lines) ^ "\n"))
    lines;
  (* trailing garbage: extra entries beyond the declared count, and
     outright junk *)
  schedule_error "padded with an extra entry" (text ^ "S 0\n");
  schedule_error "padded with junk" (text ^ "not a schedule line\n");
  (* interleaved: two files concatenated *)
  schedule_error "two schedules concatenated" (text ^ text);
  (* count line damage *)
  schedule_error "count line missing"
    (Test_util.replace_first ~sub:"len 4\n" ~by:"" text);
  schedule_error "count not a number"
    (Test_util.replace_first ~sub:"len 4" ~by:"len four" text);
  schedule_error "count mismatch"
    (Test_util.replace_first ~sub:"len 4" ~by:"len 3" text)

let test_schedule_v1_still_reads () =
  Alcotest.(check bool) "legacy v1 file reads" true
    (Fuzz.Schedule.of_text "fuzz-schedule v1\nS 0\nS 1 1\nX 2\n"
    = [ `Step (0, None); `Step (1, Some 1); `Crash 2 ]);
  (* ... but new files are written v2, with the count line *)
  Alcotest.(check bool) "writes carry the count" true
    (contains (Fuzz.Schedule.to_text [ `Crash 0 ]) "fuzz-schedule v2\nlen 1\n")

(* ---- mc checkpoints ---- *)

let ckpt_error name text =
  match Mc.Checkpoint.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged checkpoint" name

let test_checkpoint_torture () =
  let state =
    {
      Mc.Checkpoint.visited = 7900;
      leaves = 38;
      table_hits = 0;
      max_depth_seen = 17;
      trunc = 4;
      reason = Some `Depth;
      (* the multi-digit outcome is deliberate: cutting "1:12" to "1:1"
         leaves a plausible element that only the end marker catches *)
      path = [ (1, 0); (0, 2); (1, 12) ];
    }
  in
  let scenario = "mc protocol=rw-3n inputs=0,1 depth=20 max-states=10 dedup=off" in
  let text = Mc.Checkpoint.to_text ~scenario state in
  (* byte-prefix sweep with the same parse-iff-identical escape hatch *)
  for n = 0 to String.length text - 1 do
    match Mc.Checkpoint.of_text (String.sub text 0 n) with
    | exception Sim.Trace_io.Parse_error _ -> ()
    | scenario', state' ->
        if scenario' <> scenario || state' <> state then
          Alcotest.failf
            "checkpoint prefix %d/%d parsed to a different cursor" n
            (String.length text)
  done;
  (* the v1 hole: a path cut at an element boundary used to parse as a
     shorter path and resume from the wrong frontier *)
  ckpt_error "path cut at an element boundary"
    (Test_util.replace_first ~sub:" 1:12" ~by:"" text);
  ckpt_error "path padded with an extra element"
    (Test_util.replace_first ~sub:" 1:12" ~by:" 1:12 0:0" text);
  ckpt_error "path count damaged"
    (Test_util.replace_first ~sub:"path 3" ~by:"path three" text);
  (* interleaving and garbage *)
  ckpt_error "two checkpoints concatenated" (text ^ text);
  ckpt_error "trailing garbage line" (text ^ "coda\n");
  ckpt_error "binary garbage" "\x00\x01\x02randsync-checkpoint v2\n"

let test_checkpoint_v1_still_reads () =
  let v1_text =
    String.concat "\n"
      [
        "randsync-checkpoint v1";
        "scenario sc";
        "visited 5";
        "leaves 2";
        "table_hits 0";
        "max_depth_seen 3";
        "trunc 1";
        "reason nodes";
        "path 1:0 0:2";
        "";
      ]
  in
  let scenario, state = Mc.Checkpoint.of_text v1_text in
  Alcotest.(check string) "legacy scenario" "sc" scenario;
  Alcotest.(check int) "legacy visited" 5 state.Mc.Checkpoint.visited;
  Alcotest.(check bool) "legacy path" true
    (state.Mc.Checkpoint.path = [ (1, 0); (0, 2) ]);
  (* new files are written v2, with the path count *)
  let text = Mc.Checkpoint.to_text ~scenario:"sc" state in
  Alcotest.(check bool) "writes carry the path count" true
    (contains text "randsync-checkpoint v2" && contains text "path 2 1:0 0:2")

let suite =
  [
    Alcotest.test_case "wire frames round-trip" `Quick test_wire_round_trip;
    Alcotest.test_case "wire truncation sweep" `Quick
      test_wire_truncation_sweep;
    Alcotest.test_case "wire trailing garbage + interleaving" `Quick
      test_wire_trailing_garbage_and_interleaving;
    Alcotest.test_case "wire version and shape checks" `Quick
      test_wire_version_and_shape;
    Alcotest.test_case "json strictness" `Quick test_json_strictness;
    Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogates;
    Alcotest.test_case "lemma file torture" `Quick test_lemma_torture;
    Alcotest.test_case "schedule torture" `Quick test_schedule_torture;
    Alcotest.test_case "schedule v1 still reads" `Quick
      test_schedule_v1_still_reads;
    Alcotest.test_case "checkpoint torture" `Quick test_checkpoint_torture;
    Alcotest.test_case "checkpoint v1 still reads" `Quick
      test_checkpoint_v1_still_reads;
  ]
