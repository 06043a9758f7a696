(** Interpreter for the Fortran subset, with OpenMP-style parallel
    execution of directive-carrying loops across OCaml 5 domains.

    Execution is staged: each program unit's body is compiled once into
    typed closures ([float], [int] and [bool] evaluators), so the hot path
    allocates almost nothing -- important both for raw speed and because
    the OCaml 5 runtime taxes allocation-heavy code heavily once extra
    domains exist.

    Parallel semantics follow the directives the parallelizer emits:

    - iterations are block-partitioned over a persistent {!Pool} of worker
      domains;
    - PRIVATE names get fresh per-worker storage.  Inside the directive's
      own unit the override is name-keyed; across call boundaries it is
      keyed by *physical storage* instead, so subroutines called from the
      loop body resolve privatized COMMON variables to the worker's copy
      (the paper's treatment of global temporary arrays like [XY] in
      FSMP) while their own locals and formals that merely share a name
      with a privatized variable stay untouched;
    - REDUCTION names accumulate per worker from the identity element and
      merge under a lock at the join;
    - nested parallel regions execute sequentially (one level, like the
      default OpenMP nesting policy).

    The interpreter is strict: out-of-bounds interior subscripts and type
    confusion raise {!Value.Runtime_error}, which the test-suite uses for
    failure-injection tests. *)

open Frontend
open Value

exception Stop_program of string option
exception Return_exn

(** Raised when a runtime guard fires: the step budget ([fuel]) runs out
    or the call-depth limit is exceeded.  Carries a structured diagnostic
    so drivers report a trap instead of hanging or dying raw. *)
exception Trap of Diag.t

let trap fmt =
  Printf.ksprintf (fun s -> raise (Trap (Diag.make Diag.Trap s))) fmt

(* Remaining step budget, shared by every domain of the run. *)
type fuel_cell = { remaining : int Atomic.t; budget : int }

let default_max_depth = 1000

(* ------------------------------------------------------------------ *)
(* Global state and frames                                              *)
(* ------------------------------------------------------------------ *)

type cenv = {
  ce_program : Ast.program;
  ce_unit : Ast.program_unit;
  ce_slots : (string, int) Hashtbl.t;
      (** variable name -> dense per-unit slot index, assigned at compile
          time; every frame of the unit carries a [slots] array indexed by
          these, so the per-access hot path is an array load instead of a
          string-hashing [Hashtbl.find] *)
  mutable ce_nslots : int;
  mutable ce_frozen : bool;
      (** set once the unit's body is compiled: post-freeze compilations
          (dynamic [eval_dims] / argument snapshots, possibly from worker
          domains) must not mutate the slot table, so unknown names get
          slot [-1] and fall back to name lookup *)
}

type global = {
  program : Ast.program;
  commons : (string, view array) Hashtbl.t;  (** block -> member views *)
  common_layout : (string, (string * (string * int)) list) Hashtbl.t;
      (** per unit: member name -> (block, position) *)
  out : Buffer.t;
  out_mutex : Mutex.t;
  threads : int;
  pool : Pool.t;
  chunk_fstks : float array array;
      (** one scratch stack per chunk index of a fork ([threads] of
          them), reused by every fork: a fork's chunks run concurrently,
          forks never overlap *)
  code_cache : (string, cstmt array) Hashtbl.t;  (** compiled unit bodies *)
  cenvs : (string, cenv) Hashtbl.t;
      (** per-unit compile environments; populated during the up-front
          precompile and frozen before execution starts *)
  params_const_cache : (string, (string * pconst) list) Hashtbl.t;
      (** per-unit precompiled PARAMETER evaluators, so binding a frame
          does not recompile the constant expressions on every call *)
  profile : (int, prof_cell) Hashtbl.t option;
  fuel : fuel_cell option;  (** step budget; [None] = unlimited *)
  max_depth : int;  (** call-depth limit *)
}

and prof_cell = { mutable pt : float;  (** cumulative seconds *)
                  mutable pn : int  (** executions *) }

and frame = {
  glb : global;
  unit_ : Ast.program_unit;
  vars : (string, view) Hashtbl.t;
  slots : view array;
      (** slot-resolved name cache, indexed by the unit's [cenv] slot
          numbers.  Entries start as the shared {!unresolved} sentinel and
          are filled by the first access through {!resolver} with whatever
          [lookup] returns for this frame — so per-frame semantics
          (privatization overrides, lazily allocated locals, COMMON
          remapping) are untouched; only the repeated string-keyed lookups
          are.  Worker frames get a fresh array: their privatized names
          resolve differently from the parent's. *)
  consts : (string, value) Hashtbl.t;
  overrides : (string, view) Hashtbl.t list;
      (** dynamic privatization stack, innermost first; consulted only in
          the unit that lexically contains the directive — it stops at
          the call boundary *)
  st_overrides : (storage * view) list;
      (** storage-keyed privatization, innermost first: shared COMMON
          storage -> private per-worker copy.  Callee frames re-map
          COMMON members through this by physical identity, so a callee
          local or formal that shares a *name* with a privatized
          variable is never captured *)
  in_parallel : bool;
  depth : int;  (** call nesting depth, checked against [glb.max_depth] *)
  fstk : float array;
      (** per-domain scratch stack: float expressions evaluate into slots
          instead of returning (boxed) floats.  Shared down the call
          chain; each chunk of a fork gets its own from
          [glb.chunk_fstks]. *)
}

and cstmt = frame -> unit
and pconst = frame -> value

let fstk_size = 512

(* Distinguished "not yet resolved" slot entry, recognized by physical
   equality.  Never read or written as storage. *)
let unresolved : view = { st = Bs [||]; off = -1; dims = [||] }

(* The compile environment of [u] under [glb].  Environments are created
   (and registered) during the up-front precompile; a miss afterwards
   returns a frozen throwaway so dynamic compilation still works, just
   without slot resolution. *)
let cenv_of (glb : global) (u : Ast.program_unit) : cenv =
  match Hashtbl.find_opt glb.cenvs u.Ast.u_name with
  | Some env when env.ce_unit == u -> env
  | _ ->
      {
        ce_program = glb.program;
        ce_unit = u;
        ce_slots = Hashtbl.create 1;
        ce_nslots = 0;
        ce_frozen = true;
      }

let make_cenv (glb : global) (u : Ast.program_unit) : cenv =
  let env =
    {
      ce_program = glb.program;
      ce_unit = u;
      ce_slots = Hashtbl.create 32;
      ce_nslots = 0;
      ce_frozen = false;
    }
  in
  Hashtbl.replace glb.cenvs u.Ast.u_name env;
  env

let slot_of (env : cenv) name : int =
  match Hashtbl.find_opt env.ce_slots name with
  | Some s -> s
  | None ->
      if env.ce_frozen then -1
      else begin
        let s = env.ce_nslots in
        env.ce_nslots <- s + 1;
        Hashtbl.replace env.ce_slots name s;
        s
      end

(* Charge [n] steps against the run's fuel.  The subset has only counted
   DO loops (no GOTO), so charging each loop's trip count once at entry —
   plus one step per call — bounds total work at O(1) bookkeeping per
   loop execution, leaving the per-iteration hot path untouched. *)
let charge (fr : frame) (n : int) =
  (* chaos: a tripped fuel fault takes the native trap channel, so it is
     indistinguishable from a genuine budget exhaustion downstream *)
  if Fault.check "runtime.interp.fuel" then
    trap "injected fault at runtime.interp.fuel; execution trapped";
  match fr.glb.fuel with
  | None -> ()
  | Some f ->
      let old = Atomic.fetch_and_add f.remaining (-n) in
      if old - n < 0 then
        trap "step budget of %d exhausted; runaway execution trapped"
          f.budget

(* Run a compiled block without allocating an iteration closure. *)
let run_code (code : cstmt array) (fr : frame) =
  for k = 0 to Array.length code - 1 do
    (Array.unsafe_get code k) fr
  done

(* ------------------------------------------------------------------ *)
(* COMMON allocation                                                    *)
(* ------------------------------------------------------------------ *)

let eval_const_int (u : Ast.program_unit) (e : Ast.expr) : int option =
  let env = Analysis.Constprop.parameter_env u in
  let e' = Analysis.Constprop.subst_env env e in
  match Analysis.Simplify.basic_simplify e' with
  | Ast.Int_const n -> Some n
  | _ -> None

let decl_total_size u (d : Ast.decl) : int option =
  if d.Ast.d_dims = [] then Some 1
  else
    List.fold_left
      (fun acc dim ->
        match (acc, dim) with
        | None, _ -> None
        | Some _, Ast.Dim_star -> None
        | Some n, Ast.Dim_expr e -> (
            match eval_const_int u e with
            | Some k when k >= 0 -> Some (n * k)
            | _ -> None))
      (Some 1) d.Ast.d_dims

(* Allocate every COMMON block: per member position, the max constant size
   over all declaring units (shapes may legally differ across units, e.g.
   after linearization). *)
let build_commons (program : Ast.program) =
  let sizes : (string, (int * Ast.dtype) array) Hashtbl.t = Hashtbl.create 8 in
  let layouts = Hashtbl.create 16 in
  List.iter
    (fun (u : Ast.program_unit) ->
      let layout = ref [] in
      List.iter
        (fun (blk, members) ->
          List.iteri
            (fun pos m ->
              layout := (m, (blk, pos)) :: !layout;
              let size =
                match Ast.find_decl u m with
                | Some d -> Option.value ~default:1 (decl_total_size u d)
                | None -> 1
              in
              let ty = Ast.type_of_var u m in
              let arr =
                match Hashtbl.find_opt sizes blk with
                | Some a when Array.length a > pos -> a
                | Some a ->
                    let a' =
                      Array.init (pos + 1) (fun i ->
                          if i < Array.length a then a.(i) else (1, ty))
                    in
                    Hashtbl.replace sizes blk a';
                    a'
                | None ->
                    let a = Array.make (pos + 1) (1, ty) in
                    Hashtbl.replace sizes blk a;
                    a
              in
              let old_size, old_ty = arr.(pos) in
              arr.(pos) <-
                (max old_size size, if old_size = 1 then ty else old_ty))
            members)
        u.u_commons;
      Hashtbl.replace layouts u.u_name !layout)
    program.p_units;
  let commons = Hashtbl.create 8 in
  Hashtbl.iter
    (fun blk arr ->
      Hashtbl.replace commons blk
        (Array.map
           (fun (n, ty) -> { st = alloc_storage ty n; off = 0; dims = [| n |] })
           arr))
    sizes;
  (commons, layouts)

(* ------------------------------------------------------------------ *)
(* Name resolution                                                      *)
(* ------------------------------------------------------------------ *)

let rec find_override stack name =
  match stack with
  | [] -> None
  | tbl :: rest -> (
      match Hashtbl.find_opt tbl name with
      | Some v -> Some v
      | None -> find_override rest name)

(* forward reference: dimension evaluation needs expression evaluation *)
let eval_int_ref : (frame -> Ast.expr -> int) ref =
  ref (fun _ _ -> assert false)

let eval_dims fr (d : Ast.decl) : int array =
  match d.Ast.d_dims with
  | [] -> [||]
  | dims ->
      Array.of_list
        (List.map
           (function
             | Ast.Dim_star -> 1 (* assumed-size: extent bounded by storage *)
             | Ast.Dim_expr e -> max 0 (!eval_int_ref fr e))
           dims)

(* Slow path of [lookup]: COMMON resolution / lazy local allocation. *)
let lookup_slow (fr : frame) name : view =
  match find_override fr.overrides name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt fr.vars name with
      | Some v -> v
      | None -> (
          let layout =
            Option.value ~default:[]
              (Hashtbl.find_opt fr.glb.common_layout fr.unit_.u_name)
          in
          match List.assoc_opt name layout with
          | Some (blk, pos) ->
              let base = (Hashtbl.find fr.glb.commons blk).(pos) in
              let base =
                (* privatized COMMON member: follow the storage to this
                   worker's private copy, whatever this unit calls it *)
                let rec remap = function
                  | [] -> base
                  | (s, p) :: tl ->
                      if same_storage s base.st then p else remap tl
                in
                remap fr.st_overrides
              in
              let dims =
                match Ast.find_decl fr.unit_ name with
                | Some d -> eval_dims fr d
                | None -> [||]
              in
              let v = { base with dims } in
              Hashtbl.replace fr.vars name v;
              v
          | None ->
              let ty = Ast.type_of_var fr.unit_ name in
              let v =
                match Ast.find_decl fr.unit_ name with
                | Some d when d.d_dims <> [] ->
                    let dims = eval_dims fr d in
                    let n = max 1 (Array.fold_left ( * ) 1 dims) in
                    { st = alloc_storage ty n; off = 0; dims }
                | _ -> scalar_view ty
              in
              Hashtbl.replace fr.vars name v;
              v))

(* Resolve a name to a view.  The fast path is a direct hit in the frame
   table with no option allocation.  Frames are constructed so that
   vars-first is always correct: worker frames *remove* privatized names
   from their table (so they fall through to the override stack), and
   callee frames start with formals only (so COMMON members resolve
   through the override stack once and are then cached per frame). *)
let lookup (fr : frame) name : view =
  try Hashtbl.find fr.vars name with Not_found -> lookup_slow fr name

(* Compile-time name resolution: bind [name] to its per-unit slot and
   return a [frame -> view] that reads the frame's slot cache, resolving
   through [lookup] once per frame on first touch.  Frames whose slot
   array predates this slot (or names compiled post-freeze, slot -1)
   fall back to plain lookup — slower, never wrong. *)
let resolver (env : cenv) name : frame -> view =
  let s = slot_of env name in
  if s < 0 then fun fr -> lookup fr name
  else
    fun fr ->
      let slots = fr.slots in
      if s < Array.length slots then begin
        let v = Array.unsafe_get slots s in
        if v != unresolved then v
        else begin
          let w = lookup fr name in
          Array.unsafe_set slots s w;
          w
        end
      end
      else lookup fr name

(* ------------------------------------------------------------------ *)
(* Unboxed element access                                               *)
(* ------------------------------------------------------------------ *)

(* The offset of a scalar view is normally 0, but an array element passed
   by reference binds a dummy scalar to an arbitrary element — including
   one past the end when the caller's subscript was out of range (only
   interior dimensions are checked at the call site).  So scalar access
   is bounds-checked like element access. *)
let scalar_get_f (v : view) =
  let i = v.off in
  match v.st with
  | Fs a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      Array.unsafe_get a i
  | Is a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      float_of_int (Array.unsafe_get a i)
  | Bs _ -> rerror "logical used as number"

let scalar_get_i (v : view) =
  let i = v.off in
  match v.st with
  | Is a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      Array.unsafe_get a i
  | Fs a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      int_of_float (Array.unsafe_get a i)
  | Bs _ -> rerror "logical used as integer"

(* 0-based linear offset of [n] subscripts (in [buf]) within view [v];
   interior dimensions are bounds-checked, the final dimension (or a
   linearized single-subscript access) may run to the end of storage. *)
let offset_of (v : view) (buf : int array) (n : int) : int =
  let dims = v.dims in
  let rank = Array.length dims in
  if n = 0 then 0
  else if n = 1 then buf.(0) - 1
  else begin
    if n <> rank then
      rerror "rank mismatch: %d subscripts on rank-%d view" n rank;
    let acc = ref 0 and stride = ref 1 in
    for k = 0 to n - 1 do
      let i = buf.(k) in
      if k < rank - 1 && (i < 1 || i > dims.(k)) then
        rerror "subscript %d out of bounds 1..%d (dim %d)" i dims.(k) (k + 1);
      acc := !acc + ((i - 1) * !stride);
      stride := !stride * dims.(k)
    done;
    !acc
  end

let elem_get_f (v : view) off =
  let i = v.off + off in
  match v.st with
  | Fs a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      Array.unsafe_get a i
  | Is a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      float_of_int (Array.unsafe_get a i)
  | Bs _ -> rerror "logical used as number"

let elem_get_i (v : view) off =
  let i = v.off + off in
  match v.st with
  | Is a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      Array.unsafe_get a i
  | Fs a ->
      if i < 0 || i >= Array.length a then rerror "load outside storage";
      int_of_float (Array.unsafe_get a i)
  | Bs _ -> rerror "logical used as integer"

let elem_set_f (v : view) off (x : float) =
  let i = v.off + off in
  match v.st with
  | Fs a ->
      if i < 0 || i >= Array.length a then rerror "store outside storage";
      Array.unsafe_set a i x
  | Is a ->
      if i < 0 || i >= Array.length a then rerror "store outside storage";
      Array.unsafe_set a i (int_of_float x)
  | Bs _ -> rerror "logical store of number"

let elem_set_i (v : view) off (x : int) =
  let i = v.off + off in
  match v.st with
  | Is a ->
      if i < 0 || i >= Array.length a then rerror "store outside storage";
      Array.unsafe_set a i x
  | Fs a ->
      if i < 0 || i >= Array.length a then rerror "store outside storage";
      Array.unsafe_set a i (float_of_int x)
  | Bs _ -> rerror "logical store of number"

let int_pow x y =
  if y < 0 then
    if x = 1 then 1 else if x = -1 then if y mod 2 = 0 then 1 else -1 else 0
  else begin
    let r = ref 1 in
    for _ = 1 to y do
      r := !r * x
    done;
    !r
  end

(* ------------------------------------------------------------------ *)
(* Typed expression compilation                                         *)
(* ------------------------------------------------------------------ *)

(* A float evaluator writes its result into scratch slot [i]; integer and
   logical evaluators return unboxed immediates directly. *)
type fexp = frame -> int -> unit

type comp = CF of fexp | CI of (frame -> int) | CB of (frame -> bool)

exception Compile_error of string

let cerror fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* forward reference for user-function calls *)
let call_function_ref : (frame -> string -> Ast.expr list -> value) ref =
  ref (fun _ _ _ -> assert false)

let rec compile_expr (env : cenv) (e : Ast.expr) : comp =
  let u = env.ce_unit in
  let is_int = Analysis.Typing.is_int u in
  match e with
  | Ast.Int_const n -> CI (fun _ -> n)
  | Ast.Real_const r -> CF (fun fr i -> Array.unsafe_set fr.fstk i r)
  | Ast.Logical_const b -> CB (fun _ -> b)
  | Ast.Str_const _ -> cerror "string literal in numeric expression"
  | Ast.Var v
    when List.mem_assoc v u.Ast.u_params_const
         && Ast.type_of_var u v <> Ast.Logical -> (
      (* PARAMETER name: keep the dynamic consts probe — while the frame's
         constants are being bound in order, an earlier one may be read
         before later ones exist, falling through to lookup as before *)
      match Ast.type_of_var u v with
      | Ast.Integer ->
          CI
            (fun fr ->
              match Hashtbl.find_opt fr.consts v with
              | Some c -> to_int c
              | None ->
                  let w = lookup fr v in
                  if Trace.on () then Trace.read v w 0;
                  scalar_get_i w)
      | _ ->
          CF
            (fun fr i ->
              Array.unsafe_set fr.fstk i
                (match Hashtbl.find_opt fr.consts v with
                | Some c -> to_float c
                | None ->
                    let w = lookup fr v in
                    if Trace.on () then Trace.read v w 0;
                    scalar_get_f w)))
  | Ast.Var v -> (
      (* not a PARAMETER of this unit (the consts table can never hold
         it), so the probe is compiled away and the view is slot-cached *)
      let res = resolver env v in
      match Ast.type_of_var u v with
      | Ast.Integer ->
          CI
            (fun fr ->
              let w = res fr in
              if Trace.on () then Trace.read v w 0;
              scalar_get_i w)
      | Ast.Logical ->
          CB
            (fun fr ->
              let w = res fr in
              if Trace.on () then Trace.read v w 0;
              match w.st with
              | Bs a ->
                  if w.off < 0 || w.off >= Array.length a then
                    rerror "load outside storage";
                  Array.unsafe_get a w.off
              | _ -> rerror "logical variable %s has numeric storage" v)
      | Ast.Real | Ast.Double | Ast.Character ->
          CF
            (fun fr i ->
              let w = res fr in
              if Trace.on () then Trace.read v w 0;
              Array.unsafe_set fr.fstk i (scalar_get_f w)))
  | Ast.Array_ref (a, idx) ->
      let off = compile_offset env a idx in
      let res = resolver env a in
      if Ast.type_of_var u a = Ast.Integer then
        CI
          (fun fr ->
            let v = res fr in
            let o = off fr v in
            if Trace.on () then Trace.read a v o;
            elem_get_i v o)
      else
        CF
          (fun fr i ->
            let v = res fr in
            let o = off fr v in
            if Trace.on () then Trace.read a v o;
            Array.unsafe_set fr.fstk i (elem_get_f v o))
  | Ast.Func_call (f, args) when Intrinsics.is_intrinsic f ->
      compile_intrinsic env f args
  | Ast.Func_call (f, args) ->
      if is_int e then CI (fun fr -> to_int (!call_function_ref fr f args))
      else
        CF
          (fun fr i ->
            Array.unsafe_set fr.fstk i
              (to_float (!call_function_ref fr f args)))
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) as op, a, b)
    ->
      if is_int e then
        let fa = compile_int env a and fb = compile_int env b in
        CI
          (match op with
          | Ast.Add -> fun fr -> fa fr + fb fr
          | Ast.Sub -> fun fr -> fa fr - fb fr
          | Ast.Mul -> fun fr -> fa fr * fb fr
          | Ast.Div ->
              fun fr ->
                let d = fb fr in
                if d = 0 then rerror "integer division by zero" else fa fr / d
          | Ast.Pow -> fun fr -> int_pow (fa fr) (fb fr)
          | _ -> assert false)
      else
        let fa = compile_float env a and fb = compile_float env b in
        CF
          (match op with
          | Ast.Add ->
              fun fr i ->
                fa fr i;
                fb fr (i + 1);
                Array.unsafe_set fr.fstk i
                  (Array.unsafe_get fr.fstk i +. Array.unsafe_get fr.fstk (i + 1))
          | Ast.Sub ->
              fun fr i ->
                fa fr i;
                fb fr (i + 1);
                Array.unsafe_set fr.fstk i
                  (Array.unsafe_get fr.fstk i -. Array.unsafe_get fr.fstk (i + 1))
          | Ast.Mul ->
              fun fr i ->
                fa fr i;
                fb fr (i + 1);
                Array.unsafe_set fr.fstk i
                  (Array.unsafe_get fr.fstk i *. Array.unsafe_get fr.fstk (i + 1))
          | Ast.Div ->
              fun fr i ->
                fa fr i;
                fb fr (i + 1);
                Array.unsafe_set fr.fstk i
                  (Array.unsafe_get fr.fstk i /. Array.unsafe_get fr.fstk (i + 1))
          | Ast.Pow ->
              fun fr i ->
                fa fr i;
                fb fr (i + 1);
                Array.unsafe_set fr.fstk i
                  (Float.pow (Array.unsafe_get fr.fstk i)
                     (Array.unsafe_get fr.fstk (i + 1)))
          | _ -> assert false)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b)
    ->
      if is_int a && is_int b then
        let fa = compile_int env a and fb = compile_int env b in
        CB
          (match op with
          | Ast.Eq -> fun fr -> fa fr = fb fr
          | Ast.Ne -> fun fr -> fa fr <> fb fr
          | Ast.Lt -> fun fr -> fa fr < fb fr
          | Ast.Le -> fun fr -> fa fr <= fb fr
          | Ast.Gt -> fun fr -> fa fr > fb fr
          | Ast.Ge -> fun fr -> fa fr >= fb fr
          | _ -> assert false)
      else
        let fa = compile_float env a and fb = compile_float env b in
        let cmp2 rel =
          fun fr ->
            fa fr 0;
            fb fr 1;
            rel (Array.unsafe_get fr.fstk 0) (Array.unsafe_get fr.fstk 1)
        in
        CB
          (match op with
          | Ast.Eq -> cmp2 (fun x y -> x = y)
          | Ast.Ne -> cmp2 (fun x y -> x <> y)
          | Ast.Lt -> cmp2 (fun x y -> x < y)
          | Ast.Le -> cmp2 (fun x y -> x <= y)
          | Ast.Gt -> cmp2 (fun x y -> x > y)
          | Ast.Ge -> cmp2 (fun x y -> x >= y)
          | _ -> assert false)
  | Ast.Binop (Ast.And, a, b) ->
      let fa = compile_bool env a and fb = compile_bool env b in
      CB (fun fr -> fa fr && fb fr)
  | Ast.Binop (Ast.Or, a, b) ->
      let fa = compile_bool env a and fb = compile_bool env b in
      CB (fun fr -> fa fr || fb fr)
  | Ast.Unop (Ast.Neg, a) ->
      if is_int e then
        let fa = compile_int env a in
        CI (fun fr -> -fa fr)
      else
        let fa = compile_float env a in
        CF
          (fun fr i ->
            fa fr i;
            Array.unsafe_set fr.fstk i (-.Array.unsafe_get fr.fstk i))
  | Ast.Unop (Ast.Not, a) ->
      let fa = compile_bool env a in
      CB (fun fr -> not (fa fr))
  | Ast.Section (a, _) -> cerror "array section %s reached execution" a

(* Rank-specialized subscript->offset computation; avoids per-access
   buffer allocation for the common ranks. *)
and compile_offset env a idx : frame -> view -> int =
  match List.map (compile_int env) idx with
  | [] -> fun _ _ -> 0
  | [ i1 ] -> fun fr _ -> i1 fr - 1
  | [ i1; i2 ] ->
      fun fr v ->
        let dims = v.dims in
        if Array.length dims <> 2 then
          rerror "rank mismatch: 2 subscripts on rank-%d view %s"
            (Array.length dims) a;
        let x1 = i1 fr and x2 = i2 fr in
        let d0 = Array.unsafe_get dims 0 in
        if x1 < 1 || x1 > d0 then
          rerror "subscript %d out of bounds 1..%d (dim 1 of %s)" x1 d0 a;
        (x1 - 1) + ((x2 - 1) * d0)
  | [ i1; i2; i3 ] ->
      fun fr v ->
        let dims = v.dims in
        if Array.length dims <> 3 then
          rerror "rank mismatch: 3 subscripts on rank-%d view %s"
            (Array.length dims) a;
        let x1 = i1 fr and x2 = i2 fr and x3 = i3 fr in
        let d0 = Array.unsafe_get dims 0 and d1 = Array.unsafe_get dims 1 in
        if x1 < 1 || x1 > d0 then
          rerror "subscript %d out of bounds 1..%d (dim 1 of %s)" x1 d0 a;
        if x2 < 1 || x2 > d1 then
          rerror "subscript %d out of bounds 1..%d (dim 2 of %s)" x2 d1 a;
        (x1 - 1) + ((x2 - 1) * d0) + ((x3 - 1) * d0 * d1)
  | idxc ->
      let idxc = Array.of_list idxc in
      let n = Array.length idxc in
      fun fr v ->
        let buf = Array.make n 0 in
        for k = 0 to n - 1 do
          buf.(k) <- (Array.unsafe_get idxc k) fr
        done;
        offset_of v buf n

and compile_int env e : frame -> int =
  match compile_expr env e with
  | CI f -> f
  | CF f ->
      fun fr ->
        f fr 0;
        int_of_float (Array.unsafe_get fr.fstk 0)
  | CB _ -> cerror "logical value where integer expected"

and compile_float env e : fexp =
  match compile_expr env e with
  | CF f -> f
  | CI f -> fun fr i -> Array.unsafe_set fr.fstk i (float_of_int (f fr))
  | CB _ -> cerror "logical value where number expected"

and compile_bool env e : frame -> bool =
  match compile_expr env e with
  | CB f -> f
  | CI f -> fun fr -> f fr <> 0
  | CF _ -> cerror "numeric value where logical expected"

and compile_intrinsic (env : cenv) f args : comp =
  let all_int = List.for_all (Analysis.Typing.is_int env.ce_unit) args in
  let unary_f g =
    match args with
    | [ a ] ->
        let fa = compile_float env a in
        CF
          (fun fr i ->
            fa fr i;
            Array.unsafe_set fr.fstk i (g (Array.unsafe_get fr.fstk i)))
    | _ -> cerror "%s expects one argument" f
  in
  match (f, args) with
  | ("ABS" | "DABS"), [ a ] ->
      if all_int then
        let fa = compile_int env a in
        CI (fun fr -> abs (fa fr))
      else
        let fa = compile_float env a in
        CF
          (fun fr i ->
            fa fr i;
            Array.unsafe_set fr.fstk i (Float.abs (Array.unsafe_get fr.fstk i)))
  | "IABS", [ a ] ->
      let fa = compile_int env a in
      CI (fun fr -> abs (fa fr))
  | ("MAX" | "MAX0" | "AMAX1" | "DMAX1"), _ :: _ ->
      if all_int && (f = "MAX" || f = "MAX0") then
        let fs = List.map (compile_int env) args in
        CI (fun fr -> List.fold_left (fun acc g -> max acc (g fr)) min_int fs)
      else
        let fs = List.map (compile_float env) args in
        CF
          (fun fr i ->
            Array.unsafe_set fr.fstk i neg_infinity;
            List.iter
              (fun g ->
                g fr (i + 1);
                if Array.unsafe_get fr.fstk (i + 1) > Array.unsafe_get fr.fstk i
                then
                  Array.unsafe_set fr.fstk i (Array.unsafe_get fr.fstk (i + 1)))
              fs)
  | ("MIN" | "MIN0" | "AMIN1" | "DMIN1"), _ :: _ ->
      if all_int && (f = "MIN" || f = "MIN0") then
        let fs = List.map (compile_int env) args in
        CI (fun fr -> List.fold_left (fun acc g -> min acc (g fr)) max_int fs)
      else
        let fs = List.map (compile_float env) args in
        CF
          (fun fr i ->
            Array.unsafe_set fr.fstk i infinity;
            List.iter
              (fun g ->
                g fr (i + 1);
                if Array.unsafe_get fr.fstk (i + 1) < Array.unsafe_get fr.fstk i
                then
                  Array.unsafe_set fr.fstk i (Array.unsafe_get fr.fstk (i + 1)))
              fs)
  | ("MOD" | "DMOD"), [ a; b ] ->
      if all_int then
        let fa = compile_int env a and fb = compile_int env b in
        CI
          (fun fr ->
            let d = fb fr in
            if d = 0 then rerror "MOD by zero" else fa fr mod d)
      else
        let fa = compile_float env a and fb = compile_float env b in
        CF
          (fun fr i ->
            fa fr i;
            fb fr (i + 1);
            Array.unsafe_set fr.fstk i
              (Float.rem (Array.unsafe_get fr.fstk i)
                 (Array.unsafe_get fr.fstk (i + 1))))
  | ("SQRT" | "DSQRT"), _ -> unary_f sqrt
  | ("SIN" | "DSIN"), _ -> unary_f sin
  | ("COS" | "DCOS"), _ -> unary_f cos
  | "TAN", _ -> unary_f tan
  | ("EXP" | "DEXP"), _ -> unary_f exp
  | ("LOG" | "DLOG" | "ALOG"), _ -> unary_f log
  | ("ATAN" | "DATAN"), _ -> unary_f atan
  | "ATAN2", [ a; b ] ->
      let fa = compile_float env a and fb = compile_float env b in
      CF
        (fun fr i ->
          fa fr i;
          fb fr (i + 1);
          Array.unsafe_set fr.fstk i
            (atan2 (Array.unsafe_get fr.fstk i) (Array.unsafe_get fr.fstk (i + 1))))
  | "INT", [ a ] ->
      let fa = compile_float env a in
      CI
        (fun fr ->
          fa fr 0;
          int_of_float (Array.unsafe_get fr.fstk 0))
  | "NINT", [ a ] ->
      let fa = compile_float env a in
      CI
        (fun fr ->
          fa fr 0;
          int_of_float (Float.round (Array.unsafe_get fr.fstk 0)))
  | ("DBLE" | "REAL" | "FLOAT"), [ a ] ->
      let fa = compile_float env a in
      CF fa
  | ("SIGN" | "ISIGN"), [ a; b ] ->
      if all_int then
        let fa = compile_int env a and fb = compile_int env b in
        CI (fun fr -> if fb fr >= 0 then abs (fa fr) else -abs (fa fr))
      else
        let fa = compile_float env a and fb = compile_float env b in
        CF
          (fun fr i ->
            fa fr i;
            fb fr (i + 1);
            let x = Float.abs (Array.unsafe_get fr.fstk i) in
            Array.unsafe_set fr.fstk i
              (if Array.unsafe_get fr.fstk (i + 1) >= 0.0 then x else -.x))
  | _ -> cerror "unknown intrinsic %s/%d" f (List.length args)

(* Boxed evaluation: slow boundaries only (PRINT, PARAMETER values,
   by-value argument snapshots). *)
let eval_boxed (env : cenv) (e : Ast.expr) : frame -> value =
  match e with
  | Ast.Str_const s -> fun _ -> VStr s
  | _ -> (
      match compile_expr env e with
      | CF f ->
          fun fr ->
            f fr 0;
            VReal (Array.unsafe_get fr.fstk 0)
      | CI f -> fun fr -> VInt (f fr)
      | CB f -> fun fr -> VBool (f fr))

(* Dynamic (post-freeze) compilation: adjustable dims, argument
   snapshots.  The unit's frozen cenv assigns no new slots, so these
   compile to plain lookup-based closures — slow path, never racy. *)
let dyn_eval_int fr e = (compile_int (cenv_of fr.glb fr.unit_) e) fr
let () = eval_int_ref := dyn_eval_int

(* ------------------------------------------------------------------ *)
(* Statement compilation                                                *)
(* ------------------------------------------------------------------ *)

(* names a parallel loop body touches; resolved at compile time *)
let touch_names program body =
  List.filter_map
    (fun (a : Analysis.Usedef.access) ->
      if
        Intrinsics.is_intrinsic a.acc_name
        || Ast.find_unit program a.acc_name <> None
      then None
      else Some a.acc_name)
    (Analysis.Usedef.accesses_of_stmts body)
  |> List.sort_uniq compare

let rec compile_stmts (env : cenv) (stmts : Ast.stmt list) : cstmt array =
  Array.of_list (List.map (compile_stmt env) stmts)

and compile_stmt (env : cenv) (s : Ast.stmt) : cstmt =
  let u = env.ce_unit in
  match s.node with
  | Ast.Continue -> fun _ -> ()
  | Ast.Return -> fun _ -> raise Return_exn
  | Ast.Stop msg -> fun _ -> raise (Stop_program msg)
  | Ast.Print es ->
      let fs = List.map (eval_boxed env) es in
      fun fr ->
        let line =
          String.concat " " (List.map (fun f -> string_of_value (f fr)) fs)
        in
        Mutex.lock fr.glb.out_mutex;
        Buffer.add_string fr.glb.out (line ^ "\n");
        Mutex.unlock fr.glb.out_mutex
  | Ast.Call (name, args) -> (
      (* resolve the callee and compile the argument binders now; the
         per-call work left is frame construction.  Anything irregular
         (undefined, non-subroutine, arity mismatch) keeps the dynamic
         path, which raises the same runtime errors as before. *)
      match Ast.find_unit env.ce_program name with
      | Some callee
        when callee.Ast.u_kind = Ast.Subroutine
             && List.length args = List.length callee.Ast.u_params ->
          let binders = List.map (compile_binder env) args in
          fun fr ->
            let nfr = bind_frame ~binders fr callee args in
            let code = unit_code fr callee in
            (try run_code code nfr with Return_exn -> ())
      | _ -> fun fr -> call_subroutine fr name args)
  | Ast.Assign (Ast.Lvar v, e) -> (
      match Ast.find_decl u v with
      | Some d when d.d_dims <> [] ->
          (* whole-array broadcast: one write of the entire object *)
          let f = eval_boxed env e in
          let res = resolver env v in
          fun fr ->
            let x = f fr in
            let w = res fr in
            if Trace.on () then Trace.write v w (-1);
            fill w x
      | _ -> (
          let res = resolver env v in
          match Ast.type_of_var u v with
          | Ast.Integer ->
              let f = compile_int env e in
              fun fr ->
                let x = f fr in
                let w = res fr in
                if Trace.on () then Trace.write v w 0;
                elem_set_i w 0 x
          | Ast.Logical ->
              let f = compile_bool env e in
              fun fr ->
                let x = f fr in
                let w = res fr in
                if Trace.on () then Trace.write v w 0;
                set w [] (VBool x)
          | Ast.Real | Ast.Double | Ast.Character ->
              let f = compile_float env e in
              fun fr ->
                f fr 0;
                let w = res fr in
                if Trace.on () then Trace.write v w 0;
                elem_set_f w 0 (Array.unsafe_get fr.fstk 0)))
  | Ast.Assign (Ast.Larray (a, idx), e) ->
      let off = compile_offset env a idx in
      let res = resolver env a in
      if Ast.type_of_var u a = Ast.Integer then
        let f = compile_int env e in
        fun fr ->
          let x = f fr in
          let v = res fr in
          let o = off fr v in
          if Trace.on () then Trace.write a v o;
          elem_set_i v o x
      else
        let f = compile_float env e in
        fun fr ->
          f fr 0;
          let x = Array.unsafe_get fr.fstk 0 in
          let v = res fr in
          let o = off fr v in
          if Trace.on () then Trace.write a v o;
          elem_set_f v o x
  | Ast.Assign (Ast.Lsection (a, _), _) ->
      fun _ -> rerror "array section %s reached execution" a
  | Ast.If (c, t, e) ->
      let fc = compile_bool env c in
      let ft = compile_stmts env t in
      let fe = compile_stmts env e in
      fun fr -> if fc fr then run_code ft fr else run_code fe fr
  | Ast.Tagged (_, body) ->
      let fb = compile_stmts env body in
      fun fr -> run_code fb fr
  | Ast.Do_loop l -> compile_loop env l

and compile_loop (env : cenv) (l : Ast.do_loop) : cstmt =
  let flo = compile_int env l.lo in
  let fhi = compile_int env l.hi in
  let fstep = compile_int env l.step in
  let fbody = compile_stmts env l.body in
  let touches = lazy (touch_names env.ce_program l.body) in
  let label =
    if l.parallel = None then ""
    else
      Printf.sprintf "parallel loop %d of unit %s" l.loop_id
        env.ce_unit.Ast.u_name
  in
  let res_idx = resolver env l.index in
  let run_seq fr lo hi step =
    let idx = res_idx fr in
    let tron = Trace.on () in
    (* directive loops open a conflict frame; plain loops only record
       their index writes (an un-privatized inner index is a real shared
       write the enclosing directive loop must answer for) *)
    let tracing = tron && l.parallel <> None in
    if tracing then Trace.loop_begin l.loop_id;
    (try
       let i = ref lo in
       while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
         if tracing then Trace.loop_iter l.loop_id !i;
         elem_set_i idx 0 !i;
         if tron then Trace.write l.index idx 0;
         run_code fbody fr;
         i := !i + step
       done;
       elem_set_i idx 0 !i;
       if tron then Trace.write l.index idx 0
     with e ->
       if tracing then Trace.loop_end l.loop_id;
       raise e);
    if tracing then Trace.loop_end l.loop_id
  in
  fun fr ->
    let lo = flo fr and hi = fhi fr and step = fstep fr in
    if step = 0 then rerror "zero DO step";
    (match fr.glb.fuel with
    | None -> ()
    | Some _ ->
        let niter =
          if step > 0 then max 0 (((hi - lo) / step) + 1)
          else max 0 (((lo - hi) / -step) + 1)
        in
        charge fr (niter + 1));
    let profiled = l.parallel <> None && not fr.in_parallel in
    let t0 =
      match fr.glb.profile with
      | Some _ when profiled -> Frontend.Prof.monotonic_ns ()
      | _ -> 0L
    in
    (match l.parallel with
    | Some omp when (not fr.in_parallel) && fr.glb.threads > 1 ->
        exec_parallel fr l omp fbody (Lazy.force touches) ~label ~lo ~hi
          ~step
    | _ -> run_seq fr lo hi step);
    match fr.glb.profile with
    | Some tbl when profiled -> (
        let dt = Frontend.Prof.seconds_since t0 in
        match Hashtbl.find_opt tbl l.loop_id with
        | Some c ->
            c.pt <- c.pt +. dt;
            c.pn <- c.pn + 1
        | None -> Hashtbl.replace tbl l.loop_id { pt = dt; pn = 1 })
    | _ -> ()

and exec_parallel fr (l : Ast.do_loop) (omp : Ast.omp) fbody touches ~label
    ~lo ~hi ~step =
  let niter =
    if step > 0 then max 0 (((hi - lo) / step) + 1)
    else max 0 (((lo - hi) / -step) + 1)
  in
  if niter = 0 then ()
  else begin
    let nw = min fr.glb.threads (max 1 niter) in
    (* pre-touch so lazily-allocated locals exist in the parent frame
       before per-worker copies are made *)
    List.iter
      (fun name ->
        match Hashtbl.find_opt fr.consts name with
        | Some _ -> ()
        | None -> ignore (lookup fr name))
      touches;
    (* Everything a worker privatizes is resolved here, on the calling
       domain.  A PRIVATE name the body never mentions (a COMMON
       temporary only a callee writes) is missing from [touches], and
       resolving it from the workers would have [lookup_slow] insert it
       into the parent's [vars] from several domains at once.  Workers
       only read the parent frame. *)
    let priv_base =
      List.map (fun name -> (name, lookup fr name)) omp.omp_private
    in
    let idx_base = lookup fr l.index in
    let red_base =
      List.map (fun (op, name) -> (op, name, lookup fr name)) omp.omp_reductions
    in
    let merge_mutex = if red_base = [] then None else Some (Mutex.create ()) in
    let worker w =
      let per = (niter + nw - 1) / nw in
      let first = w * per and last = min niter ((w + 1) * per) in
      if first >= last then ()
      else begin
        let priv_tbl = Hashtbl.create 8 in
        let st_over = ref fr.st_overrides in
        let mk_private (name, orig) =
          let p = fresh_like orig in
          Hashtbl.replace priv_tbl name p;
          st_over := (orig.st, p) :: !st_over
        in
        List.iter mk_private priv_base;
        mk_private (l.index, idx_base);
        List.iter
          (fun (op, name, view) ->
            let p = fresh_like view in
            let ident =
              match (op, view.st) with
              | Ast.Rsum, Fs _ -> VReal 0.0
              | Ast.Rsum, _ -> VInt 0
              | Ast.Rprod, Fs _ -> VReal 1.0
              | Ast.Rprod, _ -> VInt 1
              | Ast.Rmax, Fs _ -> VReal neg_infinity
              | Ast.Rmax, _ -> VInt min_int
              | Ast.Rmin, Fs _ -> VReal infinity
              | Ast.Rmin, _ -> VInt max_int
            in
            set p [] ident;
            Hashtbl.replace priv_tbl name p;
            st_over := (view.st, p) :: !st_over)
          red_base;
        let wfr =
          {
            fr with
            overrides = priv_tbl :: fr.overrides;
            st_overrides = !st_over;
            in_parallel = true;
            vars = Hashtbl.copy fr.vars;
            (* fresh, all-unresolved: privatized names must re-resolve
               through the override stack, not reuse the parent's cached
               shared views *)
            slots = Array.make (Array.length fr.slots) unresolved;
            fstk = fr.glb.chunk_fstks.(w);
          }
        in
        List.iter (fun (n, _) -> Hashtbl.remove wfr.vars n) priv_base;
        Hashtbl.remove wfr.vars l.index;
        List.iter (fun (_, n, _) -> Hashtbl.remove wfr.vars n) red_base;
        let idx = Hashtbl.find priv_tbl l.index in
        for k = first to last - 1 do
          elem_set_i idx 0 (lo + (k * step));
          run_code fbody wfr
        done;
        match merge_mutex with
        | None -> ()
        | Some m ->
            Mutex.protect m (fun () ->
                List.iter
                  (fun (op, name, view) ->
                    let p = Hashtbl.find priv_tbl name in
                    let cur = get view [] and mine = get p [] in
                    let merged =
                      match op with
                      | Ast.Rsum -> arith Ast.Add cur mine
                      | Ast.Rprod -> arith Ast.Mul cur mine
                      | Ast.Rmax ->
                          if to_float mine > to_float cur then mine else cur
                      | Ast.Rmin ->
                          if to_float mine < to_float cur then mine else cur
                    in
                    set view [] merged)
                  red_base)
      end
    in
    (try Pool.parallel_for ~label fr.glb.pool ~chunks:nw worker
     with Pool.Worker_failure (lbl, e) -> (
       (* surface the dead worker's exception with the owning loop id,
          preserving the kinds drivers dispatch on *)
       match e with
       | Stop_program _ | Return_exn -> raise e
       | Trap d ->
           raise
             (Trap
                (Diag.make ?loc:d.Diag.d_loc ~severity:d.Diag.d_severity
                   Diag.Trap
                   (Printf.sprintf "%s (in %s)" d.Diag.d_message lbl)))
       | Runtime_error m -> rerror "%s (in %s)" m lbl
       | e -> rerror "worker died in %s: %s" lbl (Printexc.to_string e)));
    elem_set_i idx_base 0 (lo + (niter * step))
  end

(* ------------------------------------------------------------------ *)
(* Calls                                                                *)
(* ------------------------------------------------------------------ *)

(* By-value argument snapshot: a fresh scalar view holding the value. *)
and snapshot_view (value : value) : view =
  let ty =
    match value with
    | VInt _ -> Ast.Integer
    | VReal _ -> Ast.Double
    | VBool _ -> Ast.Logical
    | VStr _ -> Ast.Character
  in
  let view = scalar_view ty in
  set view [] value;
  view

(* Compile one actual argument of a CALL into a [caller frame -> view]
   binder, mirroring [bind_frame]'s dynamic dispatch: by-reference for
   variables and array elements the caller knows, by-value snapshot
   otherwise.  The subscript evaluators and the by-value expression are
   compiled once here instead of on every call. *)
and compile_binder (env : cenv) (actual : Ast.expr) : frame -> view =
  let u = env.ce_unit in
  match actual with
  | Ast.Var name when not (List.mem_assoc name u.Ast.u_params_const) ->
      resolver env name
  | Ast.Array_ref (name, idx) ->
      let static_array = Ast.is_array u name in
      let res = resolver env name in
      let idxc = Array.of_list (List.map (compile_int env) idx) in
      let n = Array.length idxc in
      let boxed = eval_boxed env actual in
      fun fr ->
        if static_array || Hashtbl.mem fr.vars name then begin
          let base = res fr in
          let buf = Array.make n 0 in
          for k = 0 to n - 1 do
            buf.(k) <- (Array.unsafe_get idxc k) fr
          done;
          { base with off = base.off + offset_of base buf n; dims = [||] }
        end
        else snapshot_view (boxed fr)
  | e ->
      let boxed = eval_boxed env e in
      fun fr -> snapshot_view (boxed fr)

and unit_code (fr : frame) (callee : Ast.program_unit) : cstmt array =
  match Hashtbl.find_opt fr.glb.code_cache callee.u_name with
  | Some c -> c
  | None ->
      let c = compile_stmts (cenv_of fr.glb callee) callee.u_body in
      Hashtbl.replace fr.glb.code_cache callee.u_name c;
      c

(* [eval_fr] is the frame used to evaluate actual arguments.  For CALL
   statements it is the caller itself (statement position: scratch slots
   are free); for function invocations it must carry a fresh scratch so
   that argument evaluation cannot clobber the caller's live slots. *)
(* Per-unit PARAMETER evaluators, compiled once per run during the
   up-front precompile.  A cache miss (possible only for units outside
   [program.p_units]) compiles without touching the shared table, which
   worker domains must not mutate. *)
and params_const_code (glb : global) (callee : Ast.program_unit) :
    (string * pconst) list =
  match Hashtbl.find_opt glb.params_const_cache callee.u_name with
  | Some l -> l
  | None ->
      let env = cenv_of glb callee in
      List.map (fun (n, e) -> (n, eval_boxed env e)) callee.u_params_const

and bind_frame ?eval_fr ?binders (fr : frame) (callee : Ast.program_unit)
    (args : Ast.expr list) : frame =
  let efr = match eval_fr with Some f -> f | None -> fr in
  let depth = fr.depth + 1 in
  if depth > fr.glb.max_depth then
    trap "call depth limit of %d exceeded calling %s; runaway recursion \
          trapped"
      fr.glb.max_depth callee.u_name;
  charge fr 1;
  let nfr =
    {
      glb = fr.glb;
      unit_ = callee;
      vars = Hashtbl.create 16;
      consts = Hashtbl.create 4;
      slots = Array.make (cenv_of fr.glb callee).ce_nslots unresolved;
      (* name-keyed overrides stop here: the callee's locals and formals
         are distinct variables even when they share a privatized name.
         Privatized COMMON follows the storage via [st_overrides]. *)
      overrides = [];
      st_overrides = fr.st_overrides;
      in_parallel = fr.in_parallel;
      depth;
      fstk = fr.fstk;
    }
  in
  List.iter
    (fun (n, f) -> Hashtbl.replace nfr.consts n (f nfr))
    (params_const_code fr.glb callee);
  if List.length args <> List.length callee.u_params then
    rerror "call to %s: arity mismatch" callee.u_name;
  (match binders with
  | Some bs ->
      (* precompiled CALL path: each binder already encodes the
         by-reference / by-value dispatch against the caller's frame *)
      List.iter2
        (fun formal b -> Hashtbl.replace nfr.vars formal (b fr))
        callee.u_params bs
  | None ->
      List.iter2
        (fun formal actual ->
          let v =
            match actual with
            | Ast.Var name when Hashtbl.find_opt fr.consts name = None ->
                lookup fr name
            | Ast.Array_ref (name, idx)
              when Ast.is_array fr.unit_ name
                   || Hashtbl.find_opt fr.vars name <> None ->
                let base = lookup fr name in
                let n = List.length idx in
                let buf = Array.make n 0 in
                List.iteri (fun k e -> buf.(k) <- dyn_eval_int efr e) idx;
                { base with off = base.off + offset_of base buf n; dims = [||] }
            | e -> snapshot_view ((eval_boxed (cenv_of fr.glb fr.unit_) e) efr)
          in
          Hashtbl.replace nfr.vars formal v)
        callee.u_params args);
  (* reshape formal arrays per the callee's declarations (adjustable dims
     evaluated now, with scalar formals already bound) *)
  List.iter
    (fun formal ->
      match Ast.find_decl callee formal with
      | Some d when d.d_dims <> [] ->
          let base = Hashtbl.find nfr.vars formal in
          let dims = eval_dims nfr d in
          Hashtbl.replace nfr.vars formal { base with dims }
      | _ -> ())
    callee.u_params;
  (* constant evaluation or reshaping above may have resolved slots to
     views that were since rebound in [vars]; drop any cached entries so
     the body's first access re-resolves against the final bindings *)
  Array.fill nfr.slots 0 (Array.length nfr.slots) unresolved;
  nfr

and call_subroutine fr name args =
  match Ast.find_unit fr.glb.program name with
  | Some callee when callee.u_kind = Ast.Subroutine ->
      let nfr = bind_frame fr callee args in
      let code = unit_code fr callee in
      (try run_code code nfr with Return_exn -> ())
  | Some _ -> rerror "CALL to non-subroutine %s" name
  | None -> rerror "CALL to undefined subroutine %s" name

and call_function fr name args : value =
  match Ast.find_unit fr.glb.program name with
  | Some callee -> (
      match callee.u_kind with
      | Ast.Function ty ->
          (* functions are invoked mid-expression: the caller may hold live
             values in low scratch slots, so both the argument evaluation
             and the callee body get their own stack *)
          let fresh = Array.make fstk_size 0.0 in
          let eval_fr = { fr with fstk = fresh } in
          let nfr = { (bind_frame ~eval_fr fr callee args) with fstk = fresh } in
          Hashtbl.replace nfr.vars name (scalar_view ty);
          let code = unit_code fr callee in
          (try run_code code nfr with Return_exn -> ());
          get (Hashtbl.find nfr.vars name) []
      | _ -> rerror "function call to non-function %s" name)
  | None -> rerror "call to undefined function %s" name

let () = call_function_ref := call_function

(* ------------------------------------------------------------------ *)
(* Entry                                                                *)
(* ------------------------------------------------------------------ *)

(* Flatten a storage into floats for state comparison. *)
let storage_floats = function
  | Fs a -> Array.copy a
  | Is a -> Array.map float_of_int a
  | Bs a -> Array.map (fun b -> if b then 1.0 else 0.0) a

(** State keys (as produced by {!run_program_state}) of COMMON members
    named in some PRIVATE clause.  Their contents after the loop are
    unspecified — each worker wrote only its own copy while a serial run
    writes the shared storage — so a differential state comparison must
    ignore them.  REDUCTION names are {e not} included: they merge back
    into shared storage at the join and stay comparable. *)
let private_state_keys (program : Ast.program) : string list =
  let _, layouts = build_commons program in
  let keys = Hashtbl.create 8 in
  List.iter
    (fun (u : Ast.program_unit) ->
      let layout =
        Option.value ~default:[] (Hashtbl.find_opt layouts u.Ast.u_name)
      in
      List.iter
        (fun (l : Ast.do_loop) ->
          match l.Ast.parallel with
          | Some omp ->
              List.iter
                (fun n ->
                  match List.assoc_opt n layout with
                  | Some (blk, pos) ->
                      Hashtbl.replace keys
                        (Printf.sprintf "%s/%d" blk pos)
                        ()
                  | None -> ())
                omp.Ast.omp_private
          | None -> ())
        (Ast.collect_loops u.Ast.u_body))
    program.p_units;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])

(** Execute a program's MAIN unit; returns everything it printed plus the
    final contents of every COMMON block (member by member, as floats) --
    the strongest observable state two runs can be compared on. *)
let run_program_state ?(threads = 1) ?profile ?fuel
    ?(max_depth = default_max_depth) (program : Ast.program) :
    string * (string * float array) list =
  let commons, common_layout = build_commons program in
  let pool = Pool.create threads in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let glb =
        {
          program;
          commons;
          common_layout;
          out = Buffer.create 1024;
          out_mutex = Mutex.create ();
          threads;
          pool;
          chunk_fstks =
            Array.init (max 0 threads) (fun _ -> Array.make fstk_size 0.0);
          code_cache = Hashtbl.create 16;
          cenvs = Hashtbl.create 16;
          params_const_cache = Hashtbl.create 16;
          profile;
          fuel =
            Option.map
              (fun n -> { remaining = Atomic.make n; budget = n })
              fuel;
          max_depth;
        }
      in
      let main =
        match
          List.find_opt (fun u -> u.Ast.u_kind = Ast.Main) program.p_units
        with
        | Some u -> u
        | None -> rerror "program has no MAIN unit"
      in
      (* precompile every unit up front (MAIN included): code cache, slot
         tables and PARAMETER evaluators are then read-only, so worker
         domains may safely invoke (pure) functions concurrently and slot
         resolution never mutates a shared table mid-run *)
      List.iter
        (fun (u : Ast.program_unit) ->
          let env = make_cenv glb u in
          Hashtbl.replace glb.code_cache u.Ast.u_name
            (compile_stmts env u.Ast.u_body);
          Hashtbl.replace glb.params_const_cache u.Ast.u_name
            (List.map
               (fun (n, e) -> (n, eval_boxed env e))
               u.Ast.u_params_const))
        program.p_units;
      Hashtbl.iter (fun _ env -> env.ce_frozen <- true) glb.cenvs;
      let fr =
        {
          glb;
          unit_ = main;
          vars = Hashtbl.create 16;
          consts = Hashtbl.create 4;
          slots = Array.make (cenv_of glb main).ce_nslots unresolved;
          overrides = [];
          st_overrides = [];
          in_parallel = false;
          depth = 0;
          fstk = Array.make fstk_size 0.0;
        }
      in
      List.iter
        (fun (n, f) -> Hashtbl.replace fr.consts n (f fr))
        (params_const_code glb main);
      Array.fill fr.slots 0 (Array.length fr.slots) unresolved;
      let code =
        match Hashtbl.find_opt glb.code_cache main.u_name with
        | Some c -> c
        | None -> compile_stmts (cenv_of glb main) main.u_body
      in
      (try run_code code fr with
      | Return_exn -> ()
      | Stop_program (Some msg) ->
          Buffer.add_string glb.out ("STOP: " ^ msg ^ "\n")
      | Stop_program None -> ());
      let state =
        Hashtbl.fold
          (fun blk views acc ->
            Array.to_list
              (Array.mapi
                 (fun i (v : view) ->
                   (Printf.sprintf "%s/%d" blk i, storage_floats v.st))
                 views)
            @ acc)
          commons []
        |> List.sort compare
      in
      (Buffer.contents glb.out, state))

(** Execute a program's MAIN unit; returns everything it printed.
    [profile], when given, accumulates per-loop-id wall time of top-level
    directive-carrying loops (used by the empirical tuner). *)
let run_program ?threads ?profile ?fuel ?max_depth (program : Ast.program) :
    string =
  fst (run_program_state ?threads ?profile ?fuel ?max_depth program)
