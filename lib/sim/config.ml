(* A configuration (Section 2): the value of every shared object plus the
   state of every process.  [Run.step] copies the arrays, so the closure
   model checker can hold many configurations at once; callers that own a
   configuration privately step it in place ([Run.step_inplace]: the
   runners and the lower-bound adversaries' [Lowerbound.Builder]).

   [halted] supports crash-failure injection: a halted process performs no
   further steps (the paper's "a process may become faulty at a given point
   in an execution").

   [fps] carries one incrementally maintained {!Fingerprint.t} per process
   ([Run.step] mixes in every consumed response / coin outcome), giving the
   model checker an O(1)-per-step hashable key for states whose process
   components are otherwise unhashable closures. *)

type 'a t = {
  optypes : Optype.t array;  (** type of each shared object, fixed *)
  objects : Value.t array;  (** current value of each shared object *)
  procs : 'a Proc.t array;  (** current state of each process *)
  halted : bool array;  (** crash-failure flags *)
  fps : Fingerprint.t array;  (** per-process consumed-history fingerprints *)
}

let make_with_seeds fp_seeds ~optypes ~procs =
  let optypes = Array.of_list optypes in
  let n = List.length procs in
  let fps =
    match fp_seeds with
    | None -> Array.make n Fingerprint.initial
    | Some seeds ->
        if List.length seeds <> n then
          invalid_arg "Config.make: fp_seeds length <> number of processes";
        Array.of_list
          (List.map (fun s -> Fingerprint.mix Fingerprint.initial s) seeds)
  in
  {
    optypes;
    objects = Array.map (fun (ot : Optype.t) -> ot.init) optypes;
    procs = Array.of_list procs;
    halted = Array.make n false;
    fps;
  }

let make ~optypes ~procs = make_with_seeds None ~optypes ~procs

(** [make] with the initial fingerprints seeded, distinguishing processes
    whose initial protocol terms differ (e.g. by input value): fingerprint
    equality then implies state equality across processes, the
    precondition of [Mc.Explore]'s [`Symmetric] canonicalization.  Under
    plain [make] all processes start from [Fingerprint.initial] and only
    same-slot fingerprint comparisons are meaningful. *)
let make_seeded ~fp_seeds ~optypes ~procs =
  make_with_seeds (Some fp_seeds) ~optypes ~procs

let n_objects t = Array.length t.objects
let n_procs t = Array.length t.procs

let copy t =
  {
    t with
    objects = Array.copy t.objects;
    procs = Array.copy t.procs;
    halted = Array.copy t.halted;
    fps = Array.copy t.fps;
  }

let decision t pid = Proc.decision t.procs.(pid)
let is_decided t pid = Proc.is_decided t.procs.(pid)
let is_halted t pid = t.halted.(pid)
let fingerprint t pid = t.fps.(pid)

(** A process is enabled if it is neither decided nor crashed. *)
let is_enabled t pid = (not (is_decided t pid)) && not (is_halted t pid)

(** Index-iterating enabled-process traversal, ascending pid order; the
    model checker's inner loop uses these instead of materializing
    [enabled_pids] at every node. *)
let iter_enabled t f =
  for pid = 0 to n_procs t - 1 do
    if is_enabled t pid then f pid
  done

(* toplevel recursion — a local [let rec] would close over [t] and
   allocate on every [exists_enabled]/[all_decided] call *)
let rec exists_enabled_from t pid =
  pid < n_procs t && (is_enabled t pid || exists_enabled_from t (pid + 1))

let exists_enabled t = exists_enabled_from t 0

let enabled_pids t =
  let acc = ref [] in
  for pid = n_procs t - 1 downto 0 do
    if is_enabled t pid then acc := pid :: !acc
  done;
  !acc

let all_decided t = not (exists_enabled t)

let decisions t =
  let acc = ref [] in
  for pid = n_procs t - 1 downto 0 do
    match decision t pid with Some v -> acc := v :: !acc | None -> ()
  done;
  !acc

(** Crash process [pid]: it takes no further steps. *)
let halt t pid =
  let t = copy t in
  t.halted.(pid) <- true;
  t

(** Append processes, each in the given state with the given fingerprint;
    returns the new configuration and the pid of the first of them (the
    rest follow in order).  One copy of the arrays however many are
    added: the lower-bound adversaries introduce clones in batches of up
    to r. *)
let add_procs t added =
  let added = Array.of_list added in
  ( {
      t with
      procs = Array.append t.procs (Array.map fst added);
      halted = Array.append t.halted (Array.make (Array.length added) false);
      fps = Array.append t.fps (Array.map snd added);
    },
    n_procs t )

(** [pending t pid] is the shared-memory operation [pid] is poised at. *)
let pending t pid = Proc.pending t.procs.(pid)

(** Process ids poised at object [obj] (their next step applies to it). *)
let poised_at t obj =
  let acc = ref [] in
  for pid = n_procs t - 1 downto 0 do
    if
      is_enabled t pid
      &&
      match pending t pid with Some (o, _) -> Int.equal o obj | None -> false
    then acc := pid :: !acc
  done;
  !acc

let pp pp_decision ppf t =
  Fmt.pf ppf "@[<v>objects: %a@,procs: %a@]"
    Fmt.(array ~sep:sp Value.pp_compact)
    t.objects
    Fmt.(array ~sep:sp (Proc.pp pp_decision))
    t.procs
