(* Operation triviality, as the lower-bound machinery needs it.

   The paper's notion: an operation is trivial if it never changes the
   object's value.  [Objclass.Classify] decides this exhaustively for
   finite specs; the attack targets, however, use unbounded objects.  Every
   object type in this repository names its unique trivial operation
   "read" (and READ is trivial on all of them, as the classification tests
   verify), so on protocol objects we decide triviality by name.

   "Poised at R" in Section 3 means: the process's next step applies a
   *nontrivial* operation to R; processes poised at reads are invisible to
   the block-write machinery. *)

open Sim

let is_trivial (op : Op.t) = op.name = "read" || (op.name = "fetch&add" && op.arg = Value.Int 0)

let is_nontrivial op = not (is_trivial op)

(** The pending nontrivial operation of a process state, if any:
    [Some (obj, op)] when the process is poised (in the paper's sense) at
    [obj]. *)
let pending_write proc =
  match Proc.pending proc with
  | Some (obj, op) when is_nontrivial op -> Some (obj, op)
  | Some _ | None -> None

let poised_write config pid = pending_write config.Config.procs.(pid)

(** All enabled processes poised (nontrivially) at object [obj].
    Built in one descending pass — no intermediate [enabled_pids]
    list; this sits inside the block-write adversary's innermost
    scan. *)
let poised_at config obj =
  let acc = ref [] in
  for pid = Config.n_procs config - 1 downto 0 do
    if
      Config.is_enabled config pid
      &&
      match poised_write config pid with
      | Some (o, _) -> Int.equal o obj
      | None -> false
    then acc := pid :: !acc
  done;
  !acc
