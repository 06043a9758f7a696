(** Hash-consed subscripts and memoized dependence testing.

    Inlining — conventional or annotation-based — multiplies the array
    references visible inside each candidate loop, and the pairwise
    dependence tester pays for that blow-up quadratically: the Prof
    counters show [dep_tests_run] dominating analysis time on the suite
    matrix.  Most of those pairs are re-tests: inlined code repeats the
    same subscript expressions over and over, sibling loops with the
    same header shape ask the exact same questions, and the three
    inlining configurations re-analyze every unit the inliner left
    untouched.

    This module removes the redundancy without changing a single verdict:

    - {b Interning}: structurally equal array references ([aref]s: the
      subscript expression list plus the enclosing inner-loop context)
      are hash-consed to a small integer id, giving O(1) equality and a
      stable key.
    - {b Context fingerprints}: everything {!Ddtest.may_carry_why}
      reads from its {!Ctx.t} — the candidate loop's index, bounds and
      step, and the positivity assumptions — is interned to a second id.
    - {b Type signatures}: the unit itself influences a test only
      through {!Frontend.Ast.type_of_var} on the identifiers occurring
      in the keyed expressions (typing decides which sub-expressions
      {!Analysis.Simplify} sends through the polynomial normal form).
      Both intern keys therefore carry the sorted [(identifier, type)]
      signature of their expressions, which makes entries
      unit-independent: the cache survives across units, across the
      three inlining configurations, and across whole programs for the
      lifetime of the domain.  Sharing is a pure-function equality, not
      a heuristic.
    - {b Memoization}: [may_carry_why] results are cached on the
      [(ctx-fingerprint, aref, aref)] triple.  The pair order is part of
      the key (the deciding-test provenance string is
      direction-sensitive), so a cached answer is byte-identical to a
      recomputed one.

    All state lives in domain-local storage (the same [Domain.DLS]
    pattern as {!Frontend.Prof} and {!Frontend.Span}), so the [--jobs N]
    suite driver's concurrent compilations never share or race on a
    table.  Per-point hit/miss counters depend on what the domain
    analyzed earlier; run the bench suite single-job when pinning them
    in CI. *)

open Frontend

(* Identifiers whose typing can influence a dependence test: variable,
   array and section heads (typed via [Ast.type_of_var]); function names
   type by intrinsic table or the implicit rule — name-only — but are
   included anyway since a declaration for the name shadows nothing and
   splitting the cache on it is merely conservative. *)
let rec add_idents acc (e : Ast.expr) =
  match e with
  | Ast.Var v -> v :: acc
  | Ast.Array_ref (n, args) | Ast.Func_call (n, args) ->
      List.fold_left add_idents (n :: acc) args
  | Ast.Section (n, bounds) ->
      List.fold_left
        (fun acc (a, b, c) ->
          List.fold_left add_idents acc (List.filter_map Fun.id [ a; b; c ]))
        (n :: acc) bounds
  | Ast.Binop (_, a, b) -> add_idents (add_idents acc a) b
  | Ast.Unop (_, a) -> add_idents acc a
  | Ast.Int_const _ | Ast.Real_const _ | Ast.Str_const _
  | Ast.Logical_const _ ->
      acc

(* Sorted, deduplicated [(identifier, type)] signature of [exprs] plus
   the explicitly [named] identifiers (loop index variables). *)
let type_sig (u : Ast.program_unit) ~(named : string list)
    (exprs : Ast.expr list) : (string * Ast.dtype) list =
  let names =
    List.sort_uniq String.compare (List.fold_left add_idents named exprs)
  in
  List.map (fun n -> (n, Ast.type_of_var u n)) names

(* One aref as the tester sees it: subscripts + inner-loop context +
   the type signature that fixes how they simplify. *)
type aref_key =
  Ast.expr list
  * (string * Ast.expr * Ast.expr) list
  * (string * Ast.dtype) list

(* Everything [may_carry_why] reads from the context besides the unit
   (whose influence the type signature captures — see module comment). *)
type ctx_key = {
  ck_index : string;
  ck_lo : Ast.expr;
  ck_hi : Ast.expr;
  ck_step : Ast.expr;
  ck_positive : string list;  (** sorted *)
  ck_types : (string * Ast.dtype) list;  (** sorted *)
}

type state = {
  arefs : (aref_key, int) Hashtbl.t;
  ctxs : (ctx_key, int) Hashtbl.t;
  table : (int * int * int, bool * string) Hashtbl.t;
      (** (ctx fp, aref a, aref b) -> (may-carry, deciding test / reason) *)
  mutable next_id : int;
  mutable enabled : bool;
}

let fresh () =
  {
    arefs = Hashtbl.create 64;
    ctxs = Hashtbl.create 16;
    table = Hashtbl.create 256;
    next_id = 0;
    enabled = true;
  }

let slot : state Domain.DLS.key = Domain.DLS.new_key fresh
let state () = Domain.DLS.get slot

(** Drop every table entry.  Not needed for soundness (keys are
    self-contained); exists for tests and as a pressure valve for
    long-lived domains. *)
let reset () =
  let s = state () in
  Hashtbl.reset s.arefs;
  Hashtbl.reset s.ctxs;
  Hashtbl.reset s.table;
  s.next_id <- 0

(** Run [f] with memoization forced on/off (domain-local), restoring the
    previous setting afterwards.  The differential test drives the whole
    suite under [with_cache false] and asserts byte-identical verdicts. *)
let with_cache on f =
  let s = state () in
  let prev = s.enabled in
  s.enabled <- on;
  Fun.protect ~finally:(fun () -> s.enabled <- prev) f

let enabled () = (state ()).enabled

(* Ids are drawn from one counter across both intern tables, so an aref
   id can never collide with a ctx fingerprint even if a key were ever
   used in the wrong position. *)
let intern_in (s : state) tbl key =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
      let id = s.next_id in
      s.next_id <- id + 1;
      Hashtbl.replace tbl key id;
      id

let intern tbl key = intern_in (state ()) tbl key

(** Intern one array reference of unit [u]; structurally equal
    references (same subscript expressions, same inner-loop context,
    same identifier typing) map to the same id. *)
let intern_aref (u : Ast.program_unit) (index : Ast.expr list)
    (inner : (string * Ast.expr * Ast.expr) list) : int =
  Fault.point "dependence.memo.intern";
  let bounds =
    List.concat_map (fun (_, lo, hi) -> [ lo; hi ]) inner
  in
  let named = List.map (fun (iv, _, _) -> iv) inner in
  let sig_ = type_sig u ~named (index @ bounds) in
  intern (state ()).arefs (index, inner, sig_)

(** Intern a dependence-test context fingerprint. *)
let intern_ctx ~(u : Ast.program_unit) ~(index : string) ~(lo : Ast.expr)
    ~(hi : Ast.expr) ~(step : Ast.expr) ~(positive : string list) : int =
  intern (state ()).ctxs
    { ck_index = index; ck_lo = lo; ck_hi = hi; ck_step = step;
      ck_positive = positive;
      ck_types = type_sig u ~named:[ index ] [ lo; hi; step ] }

let find ~fp ~a ~b =
  let s = state () in
  if not s.enabled then None else Hashtbl.find_opt s.table (fp, a, b)

let add ~fp ~a ~b result =
  let s = state () in
  if s.enabled then Hashtbl.replace s.table (fp, a, b) result

(** (interned arefs, interned contexts, memoized pairs) — table sizes of
    the current domain, for tests and diagnostics. *)
let sizes () =
  let s = state () in
  (Hashtbl.length s.arefs, Hashtbl.length s.ctxs, Hashtbl.length s.table)

(* ------------------------------------------------------------------ *)
(* Snapshots (warm-cache persistence)                                  *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  sn_arefs : (aref_key * int) list;
  sn_ctxs : (ctx_key * int) list;
  sn_table : ((int * int * int) * (bool * string)) list;
}
(** A self-contained copy of one domain's memo store.  Entries are keyed
    by the typed intern keys themselves (plus the id maps that resolve
    the table's triples), so a snapshot is portable across processes:
    the ids inside are local to the snapshot and are re-interned on
    import.  The payload is plain algebraic data ([Ast.expr] trees,
    strings, ints) — safe to [Marshal] with no closures or custom
    blocks; the on-disk framing (versioning, integrity hash) belongs to
    the persistence layer ([Server.Store]). *)

(** Copy [s]'s memo store into a portable snapshot. *)
let export_of (s : state) : snapshot =
  {
    sn_arefs = Hashtbl.fold (fun k id acc -> (k, id) :: acc) s.arefs [];
    sn_ctxs = Hashtbl.fold (fun k id acc -> (k, id) :: acc) s.ctxs [];
    sn_table = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table [];
  }

(** Copy the calling domain's memo store into a portable snapshot. *)
let export () : snapshot = export_of (state ())

(** Merge [sn] into [s].  Every key is re-interned (snapshot-local ids
    never leak), so importing into a warm table is safe:
    already-present questions keep their existing answer — both sides
    computed the same pure function — and new ones are added.  Returns
    the number of memoized pairs the table gained. *)
let import_into (s : state) (sn : snapshot) : int =
  let remap = Hashtbl.create 256 in
  List.iter
    (fun (k, old_id) -> Hashtbl.replace remap old_id (intern_in s s.arefs k))
    sn.sn_arefs;
  List.iter
    (fun (k, old_id) -> Hashtbl.replace remap old_id (intern_in s s.ctxs k))
    sn.sn_ctxs;
  let before = Hashtbl.length s.table in
  List.iter
    (fun ((fp, a, b), result) ->
      match
        ( Hashtbl.find_opt remap fp,
          Hashtbl.find_opt remap a,
          Hashtbl.find_opt remap b )
      with
      | Some fp, Some a, Some b ->
          if not (Hashtbl.mem s.table (fp, a, b)) then
            Hashtbl.replace s.table (fp, a, b) result
      | _ ->
          (* a triple referencing an id its own snapshot never interned:
             corrupt beyond use, drop the entry (never guess) *)
          ())
    sn.sn_table;
  Hashtbl.length s.table - before

(** Merge [sn] into the calling domain's memo store. *)
let import (sn : snapshot) : int = import_into (state ()) sn

(* ------------------------------------------------------------------ *)
(* The shared hub (cross-domain warm cache for the daemon)             *)
(* ------------------------------------------------------------------ *)

(* Each connection-worker domain still answers dependence queries out
   of its own DLS store — the hot path stays lock-free and the ids stay
   domain-local.  What the daemon needs on top is for domain A's cold
   miss to warm domain B, so a mutex-guarded hub store accumulates
   every domain's discoveries and hands them back on demand.  Exchange
   is snapshot-merged (the issue's sanctioned alternative to lock
   striping): [sync] publishes the local store into the hub and, when
   the hub has moved past what this domain last saw, imports the hub
   back.  Both directions re-intern structural keys, so merging is
   idempotent and order-insensitive; answers are pure functions of
   their keys, so concurrent discoveries of the same pair agree.  A
   version counter makes the steady state (nobody learned anything) one
   export + no import.  Only the daemon calls [sync]; one-shot runs and
   the bench suite never touch the hub. *)

let hub_m = Mutex.create ()
let hub : state = fresh ()
let hub_version = ref 0

(* Last hub version this domain has fully imported; -1 = never. *)
let seen_slot : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))

(** Publish the calling domain's memo store into the hub and pull back
    anything other domains have contributed since this domain last
    synced.  Returns [(published, imported)] pair counts. *)
let sync () : int * int =
  let local = state () in
  let seen = Domain.DLS.get seen_slot in
  Mutex.lock hub_m;
  let was_current = !seen = !hub_version in
  let published = import_into hub (export_of local) in
  if published > 0 then incr hub_version;
  let imported =
    if was_current then begin
      (* local ⊇ hub already held, and we just pushed the difference *)
      seen := !hub_version;
      0
    end
    else begin
      let gained = import_into local (export_of hub) in
      seen := !hub_version;
      gained
    end
  in
  Mutex.unlock hub_m;
  (published, imported)

(** Hub table sizes (arefs, ctxs, memoized pairs), for stats/tests. *)
let hub_sizes () =
  Mutex.lock hub_m;
  let r =
    (Hashtbl.length hub.arefs, Hashtbl.length hub.ctxs,
     Hashtbl.length hub.table)
  in
  Mutex.unlock hub_m;
  r
