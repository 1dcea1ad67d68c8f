(* Monotonic clock, in-memory spans and per-round samples.

   Every timing in the benchmark comes from [now], the CLOCK_MONOTONIC
   reading of bechamel's stub.  A span is recorded only while [on] is
   set (the traced rounds); untraced rounds pay one branch per call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  layer : string;
  op : int;  (** operation id within the run *)
  t0 : float;
  t1 : float;
  minor_words : float;
  major_gcs : int;
}

let on = ref false
let workload = ref ""
let lock = Stdlib.Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0
let current_op = ref 0

(* parent of the next span opened on the main thread *)
let stack : int list ref = ref []

let fresh_id () =
  Stdlib.Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Stdlib.Mutex.unlock lock;
  id

let push s =
  Stdlib.Mutex.lock lock;
  spans := s :: !spans;
  Stdlib.Mutex.unlock lock

(** [record] adds a span measured elsewhere, e.g. a served job whose
    interval starts at its due time on another thread. *)
let record ~layer ~op name t0 t1 =
  if !on then
    push
      {
        id = fresh_id ();
        parent = 0;
        name;
        layer;
        op;
        t0;
        t1;
        minor_words = 0.;
        major_gcs = 0;
      }

(** [span ~layer name f] times [f ()] as a child of the enclosing span
    on the main thread, with the [Gc.quick_stat] deltas over it. *)
let span ~layer name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let g1 = Gc.quick_stat () in
      stack := List.tl !stack;
      push
        {
          id;
          parent;
          name;
          layer;
          op = !current_op;
          t0;
          t1;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
        }
    in
    Fun.protect ~finally:finish f
  end

(* ---- samples: named series of numbers, split by traced/untraced ---- *)

let untraced : (string, float list) Hashtbl.t = Hashtbl.create 64
let traced : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  let tbl = if !on then traced else untraced in
  Hashtbl.replace tbl name
    (v :: Option.value (Hashtbl.find_opt tbl name) ~default:[])

(** [get name] is every sample of [name]; [~only] keeps one kind of
    round. *)
let get ?only name =
  let from tbl = Option.value (Hashtbl.find_opt tbl name) ~default:[] in
  match only with
  | Some `Traced -> from traced
  | Some `Untraced -> from untraced
  | None -> from untraced @ from traced

(** [timed name f] runs [f], adds its duration (seconds) to [name]. *)
let timed name f =
  let t0 = now () in
  let r = f () in
  add name (now () -. t0);
  r

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank quantile, [q] in [0, 1]. *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let sum = List.fold_left ( +. ) 0.

(* ---- JSON output (flat records only) ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"layer\":%s,\"workload\":%s,\"op\":%d,\"t0\":%s,\"t1\":%s,\"minor_words\":%s,\"major_gcs\":%d}\n"
        s.id s.parent (json_string s.name) (json_string s.layer)
        (json_string !workload) s.op (json_float s.t0) (json_float s.t1)
        (json_float s.minor_words) s.major_gcs)
    (List.rev !spans);
  close_out oc
