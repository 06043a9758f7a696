(** Interpreter for the Fortran subset, with OpenMP-style parallel
    execution of directive-carrying loops across OCaml 5 domains.

    Execution is staged: before a run starts, every program unit is
    compiled into typed closures ([float], [int] and [bool] evaluators),
    so the hot path allocates almost nothing -- important both for raw
    speed and because the OCaml 5 runtime taxes allocation-heavy code
    heavily once extra domains exist.  Nothing is compiled once the run
    has started.

    Names resolve through one mechanism.  Compiling a unit gives every
    name it can mention a slot and decides how that slot is filled: a
    formal by the call site's binder, a PARAMETER by its evaluator and a
    FUNCTION result by the call, all when the frame is made; a COMMON
    member (its block storage, followed through the frame's storage-keyed
    privatization list) or a local (fresh storage) on first touch.  A
    frame is its slot array plus that list.

    Parallel semantics follow the directives the parallelizer emits:

    - iterations are block-partitioned over a persistent {!Pool} of worker
      domains;
    - each worker runs on its own copy of the directive unit's slot array,
      in which the loop index and the PRIVATE and REDUCTION names hold
      fresh per-worker storage, so no worker writes the parent frame.
      Every replaced storage also enters the worker's storage-keyed list:
      subroutines called from the loop body resolve privatized COMMON
      variables to the worker's copy (the paper's treatment of global
      temporary arrays like [XY] in FSMP), while their own locals and
      formals that merely share a name with a privatized variable stay
      untouched;
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
(* Global state, frames and compiled units                              *)
(* ------------------------------------------------------------------ *)

type global = {
  out : Buffer.t;
  out_mutex : Mutex.t;
  threads : int;
  pool : Pool.t;
  chunk_fstks : float array array;
      (** one scratch stack per chunk index of a fork ([threads] of
          them), reused by every fork: a fork's chunks run concurrently,
          forks never overlap *)
  profile : (int, prof_cell) Hashtbl.t option;
  fuel : fuel_cell option;  (** step budget; [None] = unlimited *)
  max_depth : int;  (** call-depth limit *)
}

and prof_cell = { mutable pt : float;  (** cumulative seconds *)
                  mutable pn : int  (** executions *) }

and frame = {
  glb : global;
  slots : view array;
      (** one entry per slot of the unit's {!cunit}; a slot the frame has
          not filled yet holds the shared {!unresolved} sentinel *)
  privatized : (storage * view) list;
      (** storage-keyed privatization, innermost first: shared storage ->
          private per-worker copy.  A COMMON member's first touch follows
          its block storage through this list by physical identity, so a
          callee local or formal that shares a *name* with a privatized
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

(* A program unit compiled for one run.  Every field is final before the
   run starts; frames only read it. *)
type cunit = {
  cu_unit : Ast.program_unit;
  cu_slots : (string, int) Hashtbl.t;  (** name -> slot *)
  cu_dims : (string, frame -> int array) Hashtbl.t;
      (** declared extents of each name whose declaration has dims,
          compiled once per declaration *)
  mutable cu_fill : (frame -> view) array;
      (** per slot, the first-touch fill (COMMON member or fresh local);
          its length is the unit's slot count *)
  mutable cu_params : (int * (frame -> value)) list;
      (** PARAMETER slots and evaluators, bound in declaration order *)
  mutable cu_reshape : (int * (frame -> int array)) list;
      (** formal arrays, reshaped once every formal is bound *)
  mutable cu_code : cstmt array;
}

type cenv = {
  ce_units : (string, cunit) Hashtbl.t;
      (** the first unit of each name: the one {!Ast.find_unit}, and so
          every analysis, binds a call to *)
  ce_cu : cunit;  (** the unit being compiled *)
}

let fstk_size = 512

(* Distinguished "not yet resolved" slot entry, recognized by physical
   equality.  Never read or written as storage. *)
let unresolved : view = { st = Bs [||]; off = -1; dims = [||] }

let slot_of (cu : cunit) name : int =
  match Hashtbl.find_opt cu.cu_slots name with
  | Some s -> s
  | None ->
      let s = Hashtbl.length cu.cu_slots in
      Hashtbl.replace cu.cu_slots name s;
      s

(* Every name the unit declares has a slot, mentioned or not: a PRIVATE
   clause may name a COMMON member that only callees touch. *)
let new_cunit (u : Ast.program_unit) : cunit =
  let cu =
    {
      cu_unit = u;
      cu_slots = Hashtbl.create 32;
      cu_dims = Hashtbl.create 8;
      cu_fill = [||];
      cu_params = [];
      cu_reshape = [];
      cu_code = [||];
    }
  in
  let declare n = ignore (slot_of cu n) in
  List.iter declare u.u_params;
  (match u.u_kind with Ast.Function _ -> declare u.u_name | _ -> ());
  List.iter (fun (n, _) -> declare n) u.u_params_const;
  List.iter (fun (_, members) -> List.iter declare members) u.u_commons;
  List.iter (fun (d : Ast.decl) -> declare d.d_name) u.u_decls;
  cu

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

(* A unit's COMMON members: name -> (block, position).  A name listed
   twice resolves to its last listing. *)
let common_layout (u : Ast.program_unit) : (string * (string * int)) list =
  List.rev
    (List.concat_map
       (fun (blk, members) -> List.mapi (fun pos m -> (m, (blk, pos))) members)
       u.Ast.u_commons)

(* Allocate every COMMON block: per member position, the max constant size
   over all declaring units (shapes may legally differ across units, e.g.
   after linearization). *)
let build_commons (program : Ast.program) : (string, view array) Hashtbl.t =
  let sizes : (string, (int * Ast.dtype) array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (u : Ast.program_unit) ->
      List.iter
        (fun (blk, members) ->
          List.iteri
            (fun pos m ->
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
        u.u_commons)
    program.p_units;
  let commons = Hashtbl.create 8 in
  Hashtbl.iter
    (fun blk arr ->
      Hashtbl.replace commons blk
        (Array.map
           (fun (n, ty) -> { st = alloc_storage ty n; off = 0; dims = [| n |] })
           arr))
    sizes;
  commons

(* ------------------------------------------------------------------ *)
(* Name resolution                                                      *)
(* ------------------------------------------------------------------ *)

(* Compile-time name resolution: bind [name] to its slot in the unit
   being compiled and return a [frame -> view] that reads the frame's
   slot, filling it by the slot's rule on first touch. *)
let resolver (env : cenv) name : frame -> view =
  let cu = env.ce_cu in
  let s = slot_of cu name in
  fun fr ->
    let v = Array.unsafe_get fr.slots s in
    if v != unresolved then v
    else begin
      let w = (Array.unsafe_get cu.cu_fill s) fr in
      Array.unsafe_set fr.slots s w;
      w
    end

(* The first-touch fill of each slot of [cu]: a COMMON member is its
   block storage, or this worker's private copy of it, whatever this unit
   calls it; anything else is a fresh local. *)
let fill_rules commons (cu : cunit) : (frame -> view) array =
  let u = cu.cu_unit in
  let layout = common_layout u in
  let names = Array.make (Hashtbl.length cu.cu_slots) "" in
  Hashtbl.iter (fun n s -> names.(s) <- n) cu.cu_slots;
  Array.map
    (fun name ->
      let dims = Hashtbl.find_opt cu.cu_dims name in
      match (List.assoc_opt name layout, dims) with
      | Some (blk, pos), _ ->
          let base = (Hashtbl.find commons blk).(pos) in
          let dims = Option.value dims ~default:(fun _ -> [||]) in
          fun fr ->
            let rec remap = function
              | [] -> base
              | (s, p) :: tl -> if same_storage s base.st then p else remap tl
            in
            { (remap fr.privatized) with dims = dims fr }
      | None, Some dims ->
          let ty = Ast.type_of_var u name in
          fun fr ->
            let dims = dims fr in
            let n = max 1 (Array.fold_left ( * ) 1 dims) in
            { st = alloc_storage ty n; off = 0; dims }
      | None, None ->
          let ty = Ast.type_of_var u name in
          fun _ -> scalar_view ty)
    names

(* By-value argument or PARAMETER: a fresh scalar view holding the
   value. *)
let snapshot_view (value : value) : view =
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

(* A frame of [cu] made from [fr]: every slot unresolved but the
   PARAMETERs, bound in declaration order (a later one may read an earlier
   one). *)
let new_frame (fr : frame) (cu : cunit) ~depth : frame =
  let nfr =
    { fr with slots = Array.make (Array.length cu.cu_fill) unresolved; depth }
  in
  List.iter (fun (s, f) -> nfr.slots.(s) <- snapshot_view (f nfr)) cu.cu_params;
  nfr

(* Enter [cu] from the calling frame [fr], under the run's guards. *)
let enter (fr : frame) (cu : cunit) : frame =
  let depth = fr.depth + 1 in
  if depth > fr.glb.max_depth then
    trap "call depth limit of %d exceeded calling %s; runaway recursion \
          trapped"
      fr.glb.max_depth cu.cu_unit.u_name;
  charge fr 1;
  new_frame fr cu ~depth

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

(* Compile now, fail when run: for code a run may never reach (declared
   dims, function arguments), whose compile error must surface only if
   it executes. *)
let deferred compile =
  try compile () with Compile_error m -> fun _ -> raise (Compile_error m)

let rec compile_expr (env : cenv) (e : Ast.expr) : comp =
  let u = env.ce_cu.cu_unit in
  let is_int = Analysis.Typing.is_int u in
  match e with
  | Ast.Int_const n -> CI (fun _ -> n)
  | Ast.Real_const r -> CF (fun fr i -> Array.unsafe_set fr.fstk i r)
  | Ast.Logical_const b -> CB (fun _ -> b)
  | Ast.Str_const _ -> cerror "string literal in numeric expression"
  | Ast.Var v -> (
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
      let call = compile_function env f args in
      if is_int e then CI (fun fr -> to_int (call fr))
      else CF (fun fr i -> Array.unsafe_set fr.fstk i (to_float (call fr)))
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
  let all_int = List.for_all (Analysis.Typing.is_int env.ce_cu.cu_unit) args in
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
and eval_boxed (env : cenv) (e : Ast.expr) : frame -> value =
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

(* ------------------------------------------------------------------ *)
(* Calls                                                                *)
(* ------------------------------------------------------------------ *)

(* Compile one actual argument into a [caller frame -> view] binder:
   by reference for a variable other than a PARAMETER, or for an element
   of an array the caller declares or has already bound; by-value
   snapshot otherwise. *)
and compile_binder (env : cenv) (actual : Ast.expr) : frame -> view =
  let u = env.ce_cu.cu_unit in
  match actual with
  | Ast.Var name when not (List.mem_assoc name u.Ast.u_params_const) ->
      resolver env name
  | Ast.Array_ref (name, idx) ->
      let static_array = Ast.is_array u name in
      let s = slot_of env.ce_cu name in
      let res = resolver env name in
      let idxc = Array.of_list (List.map (compile_int env) idx) in
      let n = Array.length idxc in
      let boxed = eval_boxed env actual in
      fun fr ->
        if static_array || Array.unsafe_get fr.slots s != unresolved then begin
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

(* One call site of [cu], bound once: the returned function enters the
   callee from the caller's frame, binds each formal to its actual's
   binder (evaluated on that frame), then reshapes the formal arrays. *)
and compile_call (env : cenv) (cu : cunit) (args : Ast.expr list) :
    frame -> frame =
  let u = cu.cu_unit in
  if List.length args <> List.length u.u_params then fun fr ->
    ignore (enter fr cu);
    rerror "call to %s: arity mismatch" u.u_name
  else
    let binders =
      List.map2
        (fun formal a -> (slot_of cu formal, compile_binder env a))
        u.u_params args
    in
    fun fr ->
      let nfr = enter fr cu in
      List.iter (fun (s, b) -> nfr.slots.(s) <- b fr) binders;
      List.iter
        (fun (s, dims) ->
          let v = nfr.slots.(s) in
          nfr.slots.(s) <- { v with dims = dims nfr })
        cu.cu_reshape;
      nfr

and compile_function (env : cenv) f args : frame -> value =
  match Hashtbl.find_opt env.ce_units f with
  | Some ({ cu_unit = { u_kind = Ast.Function ty; _ }; _ } as cu) ->
      let bind = deferred (fun () -> compile_call env cu args) in
      let result = slot_of cu f in
      fun fr ->
        (* functions are invoked mid-expression: the caller may hold live
           values in low scratch slots, so both the argument evaluation
           and the callee body get their own stack *)
        let nfr = bind { fr with fstk = Array.make fstk_size 0.0 } in
        let r = scalar_view ty in
        nfr.slots.(result) <- r;
        (try run_code cu.cu_code nfr with Return_exn -> ());
        get r []
  | Some _ -> fun _ -> rerror "function call to non-function %s" f
  | None -> fun _ -> rerror "call to undefined function %s" f

(* ------------------------------------------------------------------ *)
(* Statement compilation                                                *)
(* ------------------------------------------------------------------ *)

and compile_stmts (env : cenv) (stmts : Ast.stmt list) : cstmt array =
  Array.of_list (List.map (compile_stmt env) stmts)

and compile_stmt (env : cenv) (s : Ast.stmt) : cstmt =
  let u = env.ce_cu.cu_unit in
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
      match Hashtbl.find_opt env.ce_units name with
      | Some ({ cu_unit = { u_kind = Ast.Subroutine; _ }; _ } as cu) ->
          let bind = compile_call env cu args in
          fun fr ->
            let nfr = bind fr in
            (try run_code cu.cu_code nfr with Return_exn -> ())
      | Some _ -> fun _ -> rerror "CALL to non-subroutine %s" name
      | None -> fun _ -> rerror "CALL to undefined subroutine %s" name)
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
  let res_idx = resolver env l.index in
  let fork = Option.map (compile_fork env l fbody res_idx) l.parallel in
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
    (match fork with
    | Some fork when (not fr.in_parallel) && fr.glb.threads > 1 ->
        fork fr ~lo ~hi ~step
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

(* A directive loop's fork.  Everything a worker privatizes is resolved
   against the parent frame on the calling domain; each chunk then runs
   on its own copy of the parent's slots with the index, PRIVATE and
   REDUCTION slots replaced, so workers never write the parent frame.  A
   clause name the unit has no slot for (it neither declares nor mentions
   it) has no storage to privatize. *)
and compile_fork (env : cenv) (l : Ast.do_loop) fbody res_idx (omp : Ast.omp) =
  let cu = env.ce_cu in
  let label =
    Printf.sprintf "parallel loop %d of unit %s" l.loop_id cu.cu_unit.u_name
  in
  (* names the body touches: resolved in the parent before the fork, so
     workers share its locals instead of each allocating their own *)
  let touches =
    Analysis.Usedef.accesses_of_stmts l.body
    |> List.filter_map (fun (a : Analysis.Usedef.access) ->
           if
             Intrinsics.is_intrinsic a.acc_name
             || Hashtbl.mem env.ce_units a.acc_name
           then None
           else Some a.acc_name)
    |> List.sort_uniq compare |> List.map (resolver env)
  in
  let slotted name =
    Option.map
      (fun s -> (s, resolver env name))
      (Hashtbl.find_opt cu.cu_slots name)
  in
  let privs = List.filter_map slotted omp.omp_private in
  let reds =
    List.filter_map
      (fun (op, name) -> Option.map (fun sr -> (op, sr)) (slotted name))
      omp.omp_reductions
  in
  let idx_slot = slot_of cu l.index in
  fun fr ~lo ~hi ~step ->
    let niter =
      if step > 0 then max 0 (((hi - lo) / step) + 1)
      else max 0 (((lo - hi) / -step) + 1)
    in
    if niter > 0 then begin
      let nw = min fr.glb.threads (max 1 niter) in
      List.iter (fun res -> ignore (res fr)) touches;
      let priv_base = List.map (fun (s, res) -> (s, res fr)) privs in
      let idx_base = res_idx fr in
      let red_base = List.map (fun (op, (s, res)) -> (op, s, res fr)) reds in
      let merge_mutex =
        if red_base = [] then None else Some (Mutex.create ())
      in
      let worker w =
        let per = (niter + nw - 1) / nw in
        let first = w * per and last = min niter ((w + 1) * per) in
        if first < last then begin
          let slots = Array.copy fr.slots in
          let privatized = ref fr.privatized in
          let privatize s (orig : view) p =
            slots.(s) <- p;
            privatized := (orig.st, p) :: !privatized
          in
          List.iter (fun (s, orig) -> privatize s orig (fresh_like orig)) priv_base;
          privatize idx_slot idx_base (fresh_like idx_base);
          List.iter
            (fun (op, s, view) ->
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
              privatize s view p)
            red_base;
          let wfr =
            {
              fr with
              slots;
              privatized = !privatized;
              in_parallel = true;
              fstk = fr.glb.chunk_fstks.(w);
            }
          in
          let idx = slots.(idx_slot) in
          for k = first to last - 1 do
            elem_set_i idx 0 (lo + (k * step));
            run_code fbody wfr
          done;
          match merge_mutex with
          | None -> ()
          | Some m ->
              Mutex.protect m (fun () ->
                  List.iter
                    (fun (op, s, view) ->
                      let cur = get view [] and mine = get slots.(s) [] in
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
(* Program compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* Compile every unit of [program] for one run, duplicates included.  A
   call binds to the first unit of its name.  Once this returns, no slot
   is assigned and nothing is compiled: worker domains only read the
   compiled units. *)
let compile_program commons (program : Ast.program) :
    (Ast.program_unit * cunit) list =
  let cunits = List.map (fun u -> (u, new_cunit u)) program.p_units in
  let units = Hashtbl.create 16 in
  List.iter
    (fun ((u : Ast.program_unit), cu) ->
      if not (Hashtbl.mem units u.u_name) then Hashtbl.replace units u.u_name cu)
    cunits;
  List.iter
    (fun ((u : Ast.program_unit), cu) ->
      let env = { ce_units = units; ce_cu = cu } in
      List.iter
        (fun (d : Ast.decl) ->
          match Ast.find_decl u d.d_name with
          | Some first when first == d && d.d_dims <> [] ->
              let dims =
                List.map
                  (function
                    | Ast.Dim_star ->
                        fun _ -> 1 (* assumed-size: extent bounded by storage *)
                    | Ast.Dim_expr e ->
                        let f = deferred (fun () -> compile_int env e) in
                        fun fr -> max 0 (f fr))
                  d.d_dims
                |> Array.of_list
              in
              Hashtbl.replace cu.cu_dims d.d_name (fun fr ->
                  Array.map (fun f -> f fr) dims)
          | _ -> ())
        u.u_decls;
      cu.cu_code <- compile_stmts env u.u_body;
      cu.cu_params <-
        List.map (fun (n, e) -> (slot_of cu n, eval_boxed env e)) u.u_params_const;
      cu.cu_reshape <-
        List.filter_map
          (fun n ->
            Option.map (fun dims -> (slot_of cu n, dims)) (Hashtbl.find_opt cu.cu_dims n))
          u.u_params)
    cunits;
  List.iter (fun (_, cu) -> cu.cu_fill <- fill_rules commons cu) cunits;
  cunits

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
    into shared storage and stay comparable. *)
let private_state_keys (program : Ast.program) : string list =
  List.concat_map
    (fun (u : Ast.program_unit) ->
      let layout = common_layout u in
      List.concat_map
        (fun (l : Ast.do_loop) ->
          match l.Ast.parallel with
          | Some omp ->
              List.filter_map
                (fun n ->
                  Option.map
                    (fun (blk, pos) -> Printf.sprintf "%s/%d" blk pos)
                    (List.assoc_opt n layout))
                omp.Ast.omp_private
          | None -> [])
        (Ast.collect_loops u.Ast.u_body))
    program.p_units
  |> List.sort_uniq compare

(** Execute a program's MAIN unit; returns everything it printed plus the
    final contents of every COMMON block (member by member, as floats) --
    the strongest observable state two runs can be compared on. *)
let run_program_state ?(threads = 1) ?profile ?fuel
    ?(max_depth = default_max_depth) (program : Ast.program) :
    string * (string * float array) list =
  let commons = build_commons program in
  let pool = Pool.create threads in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let glb =
        {
          out = Buffer.create 1024;
          out_mutex = Mutex.create ();
          threads;
          pool;
          chunk_fstks =
            Array.init (max 0 threads) (fun _ -> Array.make fstk_size 0.0);
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
      let main = List.assq main (compile_program commons program) in
      let root =
        {
          glb;
          slots = [||];
          privatized = [];
          in_parallel = false;
          depth = 0;
          fstk = Array.make fstk_size 0.0;
        }
      in
      (try run_code main.cu_code (new_frame root main ~depth:0) with
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
