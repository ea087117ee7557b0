(* Compiled plan execution.

   [compile] lowers a chosen [Term.query] into pipelined producer/consumer
   loops ("A Compiler for Operations on Relations with Bag Semantics",
   PAPERS.md): a spine of Iterate/Flat/Unnest/Iter stages fuses into one
   loop with no intermediate collections, while Join, Nest, the binary set
   operations and aggregates are pipeline breakers that materialize a hash
   table and stream their output.  Per-element work (attribute reads,
   arithmetic, predicates) is closure-converted once at compile time, so
   the run pays no per-node dispatch, no per-stage [Value.set] sort, and
   no counter bookkeeping beyond three per-stage totals.

   The interpreter ({!Eval.run}) is the oracle: for every supported plan
   the compiled result equals the interpreted one modulo set ordering
   (compare with {!agree}).  The correctness argument for running the
   inside of a pipeline in bag discipline even under [Eager] dedup: every
   stage except aggregation is duplicate-insensitive with respect to the
   final canonical set, embedded collections are canonicalised exactly
   where the interpreter canonicalises them, and Count/Sum insert a hash
   dedup barrier under [Eager] so multiplicities are never observed.

   Plans the compiler does not support (pattern holes anywhere) raise
   {!Unsupported}; {!run} catches it, counts the fallback, and delegates
   to the interpreter — explicitly slower, never wrong. *)

open Kola
module Telemetry = Kola_telemetry.Telemetry
module C = Colstore
module Pool = Kola_parallel.Pool

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* Runtime errors reuse [Eval.Error] with the interpreter's messages, so a
   compiled plan fails exactly like an interpreted one. *)
let error fmt = Fmt.kstr (fun s -> raise (Eval.Error s)) fmt

type counters = {
  mutable tuples : int;   (** elements flowing through pipeline stages *)
  mutable probes : int;   (** hash-table lookups (joins, set ops) *)
  mutable builds : int;   (** hash-table inserts (build sides, groups) *)
  mutable morsels : int;
      (** morsels dispatched to the pool: ⌈n / 65 536⌉ per fanned-out
          kernel, none for an inline run *)
}

let fresh_counters () = { tuples = 0; probes = 0; builds = 0; morsels = 0 }

type rctx = {
  db : (string * Value.t) list;
  dedup : Eval.dedup;
  pipes : Value.t array option array;  (** materialized shared pipelines *)
  vals : Value.t option array;         (** memoized shared scalars *)
  pool : Pool.t option;                (** morsel fan-out for pure kernels *)
  c : counters;
}

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let value_gt a b = Value.compare a b > 0

let rec resolve ctx v =
  match v with
  | Value.Named n -> (
    match List.assoc_opt n ctx.db with
    | Some v -> resolve ctx v
    | None -> error "unbound database name %s" n)
  | Value.Hole h -> error "evaluated a pattern hole ?%s" h
  | v -> v

let as_pair ctx v =
  match resolve ctx v with
  | Value.Pair (a, b) -> (a, b)
  | v -> error "expected a pair, got %a" Value.pp v

(* [cmp] on a pair's resolved legs.  Matching the pair in place, rather
   than through [as_pair], allocates no tuple per comparison. *)
let compare_legs ctx v cmp =
  match resolve ctx v with
  | Value.Pair (a, b) -> cmp (resolve ctx a) (resolve ctx b)
  | v -> error "expected a pair, got %a" Value.pp v

let as_set ctx v =
  match resolve ctx v with
  | Value.Set xs | Value.Bag xs | Value.List xs -> xs
  | v -> error "expected a set, got %a" Value.pp v

let as_int ctx v =
  match resolve ctx v with
  | Value.Int i -> i
  | v -> error "expected an int, got %a" Value.pp v

let collection ctx elems =
  match ctx.dedup with
  | Eval.Eager -> Value.set elems
  | Eval.Deferred -> Value.Bag elems

(* ------------------------------------------------------------------ *)
(* Loop-invariant analysis.  A func is input-independent when evaluating
   it never consults its argument: a [Kf] constant, a composition whose
   right leg is input-independent (the left leg then sees the same value
   on every call), a pairing or conditional of input-independent parts,
   or a [Cf] whose body ignores its argument.  Such subterms — most
   importantly a closed subquery inside a membership predicate, which
   the interpreter re-evaluates once per outer element — are computed
   once per run by the compiled closures.  The analysis is conservative:
   anything that pattern-matches on its argument ([Pi1], [Times], ...)
   counts as dependent, so hoisting can never change error behaviour. *)

let rec func_invariant : Term.func -> bool = function
  | Term.Kf _ -> true
  | Term.Compose (Term.Iter (p, f), Term.Pairf (g, x)) ->
    (* Environment threading: the translator compiles a nested query as
       [iter(p, f) ∘ ⟨id, X⟩], pairing every element of X with the outer
       binding even when the body never mentions it.  The variable-free
       algebra makes that deadness syntactic: if X is closed and neither
       p nor f reads π1 of its argument, the whole subplan is closed.
       The ⟨g, x⟩ legs must not introduce input-dependent failures
       either, hence the [g = id] / invariant guard. *)
    (g = Term.Id || func_invariant g)
    && func_invariant x && pred_env_free p && func_env_free f
  | Term.Compose (_, g) -> func_invariant g
  | Term.Pairf (f, g) -> func_invariant f && func_invariant g
  | Term.Con (p, f, g) ->
    pred_invariant p && func_invariant f && func_invariant g
  | Term.Cf (f, _) -> func_invariant f
  | _ -> false

and pred_invariant : Term.pred -> bool = function
  | Term.Kp _ -> true
  | Term.Oplus (_, f) -> func_invariant f
  | Term.Andp (p, q) | Term.Orp (p, q) -> pred_invariant p && pred_invariant q
  | Term.Inv p -> pred_invariant p
  | Term.Cp (p, _) -> pred_invariant p
  | _ -> false

(* Applied to an [iter] element [Pair (env, y)]: does the result depend
   only on [y]?  π2 discards the environment outright; pair-shaped
   plumbing is env-free when all its legs are; anything invariant ignores
   the whole argument, environment included. *)
and func_env_free : Term.func -> bool = function
  | Term.Pi2 -> true
  | Term.Compose (_, g) -> func_env_free g
  | Term.Pairf (f, g) -> func_env_free f && func_env_free g
  | Term.Con (p, f, g) ->
    pred_env_free p && func_env_free f && func_env_free g
  | f -> func_invariant f

and pred_env_free : Term.pred -> bool = function
  | Term.Oplus (_, f) -> func_env_free f
  | Term.Andp (p, q) | Term.Orp (p, q) -> pred_env_free p && pred_env_free q
  | Term.Inv p -> pred_env_free p
  | p -> pred_invariant p

(* ------------------------------------------------------------------ *)
(* Scalar closure compilation: per-element work is translated once into
   nested closures mirroring [Eval.func]/[Eval.pred] case by case, so a
   hot loop never touches the term again.  [fc] additionally hoists
   loop-invariant subterms: the compiled closure memoizes its result on
   the (db, dedup) pair it ran under, so a closed subquery used as a
   filter operand costs one evaluation per run instead of one per
   element.

   Every collection operator's row semantics is written once, as a kernel
   over element sources that charges the work counters itself.  [fc] runs
   a kernel over an element's materialized set; the pipeline lowering
   below runs the same kernel over a streamed collection, and so does
   every columnar refusal. *)

(* An element source: calls its argument once per element, in order. *)
type src = (Value.t -> unit) -> unit

let of_list xs : src = fun k -> List.iter k xs

(* [Value.set xs].  Column kernels emit in row order, so [xs] is often
   strictly ascending already: then one compare per element replaces the
   sort, with the same result. *)
let canonical_set xs =
  let rec ascending = function
    | a :: (b :: _ as rest) -> Value.compare a b < 0 && ascending rest
    | _ -> true
  in
  if ascending xs then Value.Set xs else Value.set xs

(* Elements gathered newest-first into a collection under the ambient
   discipline.  [Eager] sorts anyway, so only a bag needs the reversal. *)
let finish ctx acc =
  collection ctx (if ctx.dedup = Eval.Eager then acc else List.rev acc)

let rec fc (f : Term.func) : rctx -> Value.t -> Value.t =
  match f with
  | Term.Kf _ -> fc_node f (* already O(1); a memo would only add a branch *)
  | _ when func_invariant f ->
    let f' = fc_node f in
    let memo = ref None in
    fun ctx v ->
      (match !memo with
      | Some (db, dedup, r) when db == ctx.db && dedup = ctx.dedup -> r
      | _ ->
        let r = f' ctx v in
        memo := Some (ctx.db, ctx.dedup, r);
        r)
  | _ -> fc_node f

and fc_node (f : Term.func) : rctx -> Value.t -> Value.t =
  (* A unary kernel over the element's set, and a binary one over the
     element's pair of sets (table sized from the right operand).  Kernels
     are applied in full: a partial application would allocate per call. *)
  let unary k ctx v =
    let acc = ref [] in
    k ctx (of_list (as_set ctx v)) (fun x -> acc := x :: !acc);
    finish ctx !acc
  in
  let binary k ctx v =
    let a, b = as_pair ctx v in
    let xs = as_set ctx a and ys = as_set ctx b in
    let acc = ref [] in
    k ctx ~size:((2 * List.length ys) + 1) (of_list xs) (of_list ys) (fun x ->
        acc := x :: !acc);
    finish ctx !acc
  in
  match f with
  | Term.Id -> fun ctx v -> resolve ctx v
  | Term.Pi1 -> fun ctx v -> fst (as_pair ctx v)
  | Term.Pi2 -> fun ctx v -> snd (as_pair ctx v)
  | Term.Prim name ->
    fun ctx v ->
      (match resolve ctx v with
      | Value.Obj _ as o -> (
        match Value.field name o with
        | Some x -> x
        | None -> error "object %a has no attribute %s" Value.pp o name)
      | v -> error "attribute %s applied to non-object %a" name Value.pp v)
  | Term.Compose (Term.Iter (Term.Kp true, Term.Pi2), Term.Pairf (g, x)) ->
    (* The translator threads the environment through every nested query
       as [iter(true, π2) ∘ ⟨g, X⟩] even when the body ignores it; the
       loop only repackages X.  Evaluate both legs (so errors surface
       exactly as before) but skip the pair and per-element pair/closure
       work: the result is X's elements under the ambient discipline. *)
    let g' = fc g and x' = fc x in
    fun ctx v ->
      ignore (g' ctx v);
      let ys = as_set ctx (x' ctx v) in
      ctx.c.tuples <- ctx.c.tuples + List.length ys;
      collection ctx ys
  | Term.Compose (f, g) ->
    let f' = fc f and g' = fc g in
    fun ctx v -> f' ctx (g' ctx v)
  | Term.Pairf (f, g) ->
    let f' = fc f and g' = fc g in
    fun ctx v -> Value.Pair (f' ctx v, g' ctx v)
  | Term.Times (f, g) ->
    let f' = fc f and g' = fc g in
    fun ctx v ->
      let a, b = as_pair ctx v in
      Value.Pair (f' ctx a, g' ctx b)
  | Term.Kf c -> fun ctx _ -> resolve ctx c
  | Term.Cf (f, c) ->
    let f' = fc f in
    fun ctx v -> f' ctx (Value.Pair (c, v))
  | Term.Con (p, f, g) ->
    let p' = pc p and f' = fc f and g' = fc g in
    fun ctx v -> if p' ctx v then f' ctx v else g' ctx v
  | Term.Arith op ->
    let op = match op with Term.Add -> ( + ) | Term.Sub -> ( - ) | Term.Mul -> ( * ) in
    fun ctx v ->
      let a, b = as_pair ctx v in
      Value.Int (op (as_int ctx a) (as_int ctx b))
  | Term.Agg op ->
    (* the interpreter aggregates the element's set as it stands *)
    let k = k_agg ~canonical:true op in
    fun ctx v -> k ctx (of_list (as_set ctx v))
  | Term.Setop op -> binary (k_setop op)
  | Term.Sng -> fun ctx v -> Value.set [ resolve ctx v ]
  | Term.Flat -> unary k_flat
  | Term.Iterate (p, f) -> unary (k_iterate p f)
  | Term.Iter (p, f) ->
    let k = k_iter p f in
    fun ctx v ->
      let e, set = as_pair ctx v in
      let acc = ref [] in
      k ctx e (of_list (as_set ctx set)) (fun x -> acc := x :: !acc);
      finish ctx !acc
  | Term.Join (p, f) -> binary (k_join p f)
  | Term.Nest (f, g) -> binary (k_nest f g)
  | Term.Unnest (f, g) -> unary (k_unnest f g)
  | Term.Fhole h -> unsupported "pattern hole ?%s" h

(* --- the row kernels --- *)

and k_flat ctx (src : src) emit =
  src (fun s ->
      ctx.c.tuples <- ctx.c.tuples + 1;
      List.iter emit (as_set ctx s))

and k_iterate p f : rctx -> src -> (Value.t -> unit) -> unit =
  let p' = pc p and f' = fc f in
  fun ctx src emit ->
    src (fun x ->
        ctx.c.tuples <- ctx.c.tuples + 1;
        if p' ctx x then emit (f' ctx x))

(* [iter] over the pairs [Pair (e, y)] for the environment [e]. *)
and k_iter p f : rctx -> Value.t -> src -> (Value.t -> unit) -> unit =
  let p' = pc p and f' = fc f in
  fun ctx e src emit ->
    src (fun y ->
        ctx.c.tuples <- ctx.c.tuples + 1;
        let pair = Value.Pair (e, y) in
        if p' ctx pair then emit (f' ctx pair))

and k_unnest f g : rctx -> src -> (Value.t -> unit) -> unit =
  let fk = fc f and fg = fc g in
  fun ctx src emit ->
    src (fun x ->
        ctx.c.tuples <- ctx.c.tuples + 1;
        let key = fk ctx x in
        List.iter (fun y -> emit (Value.Pair (key, y))) (as_set ctx (fg ctx x)))

(* The step every join shares once a pair matched its index: apply the
   residual, count the tuple, emit the projection. *)
and join_emit residual f :
    rctx -> (Value.t -> unit) -> Value.t -> Value.t -> unit =
  let f' = fc f in
  match Option.map pc residual with
  | None ->
    fun ctx emit x y ->
      ctx.c.tuples <- ctx.c.tuples + 1;
      emit (f' ctx (Value.Pair (x, y)))
  | Some r ->
    fun ctx emit x y ->
      let pair = Value.Pair (x, y) in
      if r ctx pair then (
        ctx.c.tuples <- ctx.c.tuples + 1;
        emit (f' ctx pair))

(* join(p, f) over the probe source [xs] and the build source [ys]: a
   hash join when [Eval.hash_joinable] decomposes [p] (the [Hashed]
   interpreter's index, built once), nested loops otherwise.  [size]
   seeds the index table. *)
and k_join p f : rctx -> size:int -> src -> src -> (Value.t -> unit) -> unit =
  match Eval.hash_joinable p with
  | Some (kind, g1, g2, residual) ->
    let g1' = fc g1 and g2' = fc g2 and step = join_emit residual f in
    fun ctx ~size xs ys emit ->
      let index : Value.t list VH.t = VH.create size in
      let add key y =
        let prev = Option.value ~default:[] (VH.find_opt index key) in
        VH.replace index key (y :: prev)
      in
      ys (fun y ->
          ctx.c.builds <- ctx.c.builds + 1;
          match kind with
          | `Eq -> add (g2' ctx y) y
          | `In -> List.iter (fun e -> add e y) (as_set ctx (g2' ctx y)));
      xs (fun x ->
          ctx.c.probes <- ctx.c.probes + 1;
          match VH.find_opt index (g1' ctx x) with
          | None -> ()
          | Some matches -> List.iter (fun y -> step ctx emit x y) matches)
  | None ->
    let p' = pc p and f' = fc f in
    fun ctx ~size:_ xs ys emit ->
      let acc = ref [] in
      ys (fun y -> acc := y :: !acc);
      let ys = List.rev !acc in
      xs (fun x ->
          List.iter
            (fun y ->
              ctx.c.tuples <- ctx.c.tuples + 1;
              let pair = Value.Pair (x, y) in
              if p' ctx pair then emit (f' ctx pair))
            ys)

(* nest(f, g): group [xs] by [f], then emit every [y] with its group. *)
and k_nest f g : rctx -> size:int -> src -> src -> (Value.t -> unit) -> unit =
  let f' = fc f and g' = fc g in
  fun ctx ~size xs ys emit ->
    let groups : Value.t list VH.t = VH.create size in
    xs (fun x ->
        ctx.c.builds <- ctx.c.builds + 1;
        let key = f' ctx x in
        let prev = Option.value ~default:[] (VH.find_opt groups key) in
        VH.replace groups key (g' ctx x :: prev));
    ys (fun y ->
        ctx.c.probes <- ctx.c.probes + 1;
        let group = Option.value ~default:[] (VH.find_opt groups y) in
        emit (Value.Pair (y, collection ctx group)))

(* Membership set operations probe a hash set of the right operand —
   O(|xs|+|ys|) where the interpreter is quadratic. *)
and k_setop op : rctx -> size:int -> src -> src -> (Value.t -> unit) -> unit =
  match op with
  | Term.Union ->
    fun ctx ~size:_ xs ys emit ->
      let each x =
        ctx.c.tuples <- ctx.c.tuples + 1;
        emit x
      in
      xs each;
      ys each
  | Term.Inter | Term.Diff ->
    let keep = op = Term.Inter in
    fun ctx ~size xs ys emit ->
      let m = VH.create size in
      ys (fun y ->
          ctx.c.builds <- ctx.c.builds + 1;
          VH.replace m y ());
      xs (fun x ->
          ctx.c.probes <- ctx.c.probes + 1;
          if VH.mem m x = keep then emit x)

(* Under [Eager] every interpreter intermediate is a set, so Count/Sum see
   deduplicated inputs; a streamed source may repeat elements, so those
   two get a hash dedup barrier — unless [canonical] says the source is
   the materialized set the interpreter would aggregate.  Max/Min and
   [Deferred] mode are multiplicity-indifferent / multiplicity-faithful
   respectively. *)
and k_agg ?(canonical = false) op : rctx -> src -> Value.t =
  match op with
  | Term.Count | Term.Sum ->
    let add =
      match op with
      | Term.Count -> fun _ n _ -> n + 1
      | _ -> fun ctx n x -> n + as_int ctx x
    in
    fun ctx src ->
      let n = ref 0 in
      (match ctx.dedup with
      | Eval.Eager when not canonical ->
        let seen = VH.create 256 in
        src (fun x ->
            ctx.c.tuples <- ctx.c.tuples + 1;
            (* replace + length delta: one hash per element, not two *)
            let before = VH.length seen in
            VH.replace seen x ();
            if VH.length seen <> before then n := add ctx !n x)
      | _ ->
        src (fun x ->
            ctx.c.tuples <- ctx.c.tuples + 1;
            n := add ctx !n x));
      Value.Int !n
  | Term.Max | Term.Min ->
    let better, name =
      match op with
      | Term.Max -> (value_gt, "max")
      | _ -> ((fun x cur -> value_gt cur x), "min")
    in
    fun ctx src ->
      let m = ref None in
      src (fun x ->
          ctx.c.tuples <- ctx.c.tuples + 1;
          match !m with
          | None -> m := Some x
          | Some cur -> if better x cur then m := Some x);
      (match !m with None -> error "%s of empty set" name | Some v -> v)

and pc (p : Term.pred) : rctx -> Value.t -> bool =
  match p with
  | Term.Eq -> fun ctx v -> compare_legs ctx v Value.equal
  | Term.Leq ->
    fun ctx v -> compare_legs ctx v (fun a b -> Value.compare a b <= 0)
  | Term.Gt -> fun ctx v -> compare_legs ctx v value_gt
  | Term.In ->
    (* Membership hashes the right operand instead of scanning it per
       probe.  The member table is memoized on the operand's physical
       identity, so a loop-invariant right side — the common shape,
       [x in Q] with [Q] closed over the loop, which [fc]'s hoisting
       pins to one physical value per run — is hashed once and probed in
       O(1); the interpreter's [List.exists] pays O(|Q|) per element.
       Small or per-element sets keep the linear scan, where building a
       table would cost more than it saves. *)
    let memo = ref None in
    fun ctx v ->
      let a, b = as_pair ctx v in
      let a = resolve ctx a in
      let ys = as_set ctx b in
      if List.compare_length_with ys 16 <= 0 then
        List.exists (Value.equal a) ys
      else begin
        let t =
          match !memo with
          | Some (prev, t) when prev == ys -> t
          | _ ->
            let t = VH.create (2 * List.length ys + 1) in
            List.iter (fun y -> VH.replace t y ()) ys;
            ctx.c.builds <- ctx.c.builds + List.length ys;
            memo := Some (ys, t);
            t
        in
        ctx.c.probes <- ctx.c.probes + 1;
        VH.mem t a
      end
  | Term.Primp name ->
    fun ctx v ->
      (match resolve ctx v with
      | Value.Obj _ as o -> (
        match Value.field name o with
        | Some (Value.Bool b) -> b
        | Some x ->
          error "predicate attribute %s is not boolean: %a" name Value.pp x
        | None -> error "object %a has no attribute %s" Value.pp o name)
      | v -> error "predicate %s applied to non-object %a" name Value.pp v)
  | Term.Oplus (p, f) ->
    let p' = pc p and f' = fc f in
    fun ctx v -> p' ctx (f' ctx v)
  | Term.Andp (p, q) ->
    let p' = pc p and q' = pc q in
    fun ctx v -> p' ctx v && q' ctx v
  | Term.Orp (p, q) ->
    let p' = pc p and q' = pc q in
    fun ctx v -> p' ctx v || q' ctx v
  | Term.Inv p ->
    let p' = pc p in
    fun ctx v -> not (p' ctx v)
  | Term.Conv p ->
    let p' = pc p in
    fun ctx v ->
      let a, b = as_pair ctx v in
      p' ctx (Value.Pair (b, a))
  | Term.Kp b -> fun _ _ -> b
  | Term.Cp (p, c) ->
    let p' = pc p in
    fun ctx v -> p' ctx (Value.Pair (c, v))
  | Term.Phole h -> unsupported "pattern hole ?%s" h

(* ------------------------------------------------------------------ *)
(* Columnar kernels.  Under [layout = Columnar] the compiler binds extent
   scans to a {!Colstore} relation: a [vec] is a base relation plus a
   composed pure selection predicate (chained filters fuse into one
   conjunction tested in a single pass) and a per-run prologue that forces
   whatever the row path would have forced (environment values), so error
   behaviour is unchanged.  [cproj]/[cpred] compile attribute paths and
   comparisons against the typed columns; they refuse — and the operator
   runs its row kernel, counted as a degrade — whenever the columns
   cannot prove the row semantics are reproduced (missing or non-uniform
   column, non-exact ref traversal, anything needing the runtime
   context). *)

type layout = Row | Columnar

let layout_name = function Row -> "row" | Columnar -> "columnar"

let layout_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "row" -> Ok Row
  | "columnar" | "col" -> Ok Columnar
  | s -> Error (Fmt.str "unknown layout %S (expected row|columnar)" s)

type vec = {
  rel : C.relation;
  vp : (int -> bool) option;     (** composed selection predicate (pure) *)
  pre : (rctx -> unit) option;   (** forced once per scan, before rows *)
}

let vec_pre ctx v = match v.pre with Some f -> f ctx | None -> ()

let vec_conj v p =
  match v.vp with
  | None -> { v with vp = Some p }
  | Some q -> { v with vp = Some (fun i -> q i && p i) }

let vec_add_pre v f =
  match v.pre with
  | None -> { v with pre = Some f }
  | Some g ->
    { v with pre = Some (fun ctx -> g ctx; f ctx) }

let vec_iter ctx v k =
  vec_pre ctx v;
  let n = Array.length v.rel.C.rows in
  match v.vp with
  | None -> for i = 0 to n - 1 do k i done
  | Some p -> for i = 0 to n - 1 do if p i then k i done

(* Selected rows, in row order.  Rows are stored in canonical set order
   and a selection preserves it, so under [Eager] the result is already a
   canonical set — no sort needed. *)
let vec_rows ctx v =
  vec_pre ctx v;
  let rows = v.rel.C.rows in
  let acc = ref [] in
  (match v.vp with
  | None -> for i = Array.length rows - 1 downto 0 do acc := rows.(i) :: !acc done
  | Some p ->
    for i = Array.length rows - 1 downto 0 do
      if p i then acc := rows.(i) :: !acc
    done);
  !acc

(* Order-preserving morsel fan-out: split [0, n) into fixed-size morsels
   (boundaries depend only on [n], never on the worker count), compute
   [f lo hi] per morsel — [f] must be pure — and return the chunk results
   in morsel order.  Results are therefore bit-identical at any [--jobs]:
   only scheduling, never splitting or merge order, sees the pool.  Only
   morsels dispatched to the pool are counted: an inline run counts none,
   exactly like the kernels that never call this. *)
let morsel_rows = 65_536

let morsel_fold ctx ~n (f : int -> int -> 'a) : 'a list =
  if n <= 0 then []
  else
    match ctx.pool with
    | Some pool when n > morsel_rows && Pool.size pool > 1 ->
      let k = (n + morsel_rows - 1) / morsel_rows in
      ctx.c.morsels <- ctx.c.morsels + k;
      let bounds =
        Array.init k (fun i -> (i * morsel_rows, min n ((i + 1) * morsel_rows)))
      in
      Array.to_list (Pool.map pool (fun (lo, hi) -> f lo hi) bounds)
    | _ -> [ f 0 n ]

(* Typed projection closures over a base row index. *)
type proj =
  | PInt of (int -> int)
  | PStr of (int -> string)
  | PBool of (int -> bool)
  | PRow of C.relation * (int -> int)  (** a row of another relation *)
  | PVal of (int -> Value.t)           (** boxed column read (pure) *)
  | PPair of proj * proj
      (** a pair of projections: [⟨f, g⟩] over any leaf, and the leaf a
          nested select's [p] and [h] see (π1 the parent row, π2 the
          element row) *)

let rec aproj coldb (f : Term.func) (p : proj) : proj option =
  match (f, p) with
  | Term.Id, p -> Some p
  | Term.Pi1, PPair (a, _) -> Some a
  | Term.Pi2, PPair (_, b) -> Some b
  | Term.Pairf (f, g), p -> (
    match (aproj coldb f p, aproj coldb g p) with
    | Some a, Some b -> Some (PPair (a, b))
    | _ -> None)
  | Term.Compose (a, b), p -> (
    match aproj coldb b p with
    | Some q -> aproj coldb a q
    | None -> None)
  | Term.Kf (Value.Int k), _ -> Some (PInt (fun _ -> k))
  | Term.Kf (Value.Str s), _ -> Some (PStr (fun _ -> s))
  | Term.Kf (Value.Bool b), _ -> Some (PBool (fun _ -> b))
  | Term.Prim a, PRow (rel, ix) -> (
    match C.column rel a with
    | Some (C.Column.Ints arr) -> Some (PInt (fun i -> arr.(ix i)))
    | Some (C.Column.Strs arr) -> Some (PStr (fun i -> arr.(ix i)))
    | Some (C.Column.Bools arr) -> Some (PBool (fun i -> arr.(ix i)))
    | Some (C.Column.Refs { target; idx; exact = true; _ }) -> (
      (* Exact refs only: the embedded value IS the target row, so reading
         on through its columns is sound. *)
      match C.relation coldb target with
      | Some t -> Some (PRow (t, fun i -> idx.(ix i)))
      | None -> None)
    | Some (C.Column.Sets { sets = arr; _ }) | Some (C.Column.Boxed arr) ->
      Some (PVal (fun i -> arr.(ix i)))
    | Some (C.Column.Refs _) | None -> None)
  | _ -> None

let proj_of_row coldb f rel = aproj coldb f (PRow (rel, fun i -> i))

(* The raw value a projection denotes — exactly what the row path's
   attribute closure returns (field values are not resolved). *)
let rec proj_emit (p : proj) : int -> Value.t =
  match p with
  | PInt g -> fun i -> Value.Int (g i)
  | PStr g -> fun i -> Value.Str (g i)
  | PBool g -> fun i -> Value.Bool (g i)
  | PRow (rel, ix) -> fun i -> rel.C.rows.(ix i)
  | PVal g -> g
  | PPair (a, b) ->
    let ea = proj_emit a and eb = proj_emit b in
    fun i -> Value.Pair (ea i, eb i)

(* A row's identity as an extent row: the extent, the row index, and
   whether every index is one.  An extent's rows are themselves; an
   element row is the target row its code names ([-1] outside it), so
   two positions holding copies of one object compare equal. *)
let row_ident (rel : C.relation) ix =
  match rel.C.of_set with
  | None -> (rel.C.name, ix, true)
  | Some e ->
    let codes = e.C.codes in
    (e.C.target, (fun i -> codes.(ix i)), e.C.total)

(* Comparator compilation.  Same-kind typed comparisons only: rows of one
   relation are stored in canonical ([Value.compare]) order with distinct
   oids, so index order is value order and all three comparisons agree
   with the row path.  Rows compare through {!row_ident}: a [-1] code
   never equals an extent row, so equality needs one side total and
   ordering both.  Mixed-type or boxed comparisons keep the row
   closures. *)
let ccmp (cmp : [ `Eq | `Leq | `Gt ]) (a : proj) (b : proj) :
    (int -> bool) option =
  match (a, b) with
  | PInt x, PInt y ->
    Some
      (match cmp with
      | `Eq -> fun i -> x i = y i
      | `Leq -> fun i -> x i <= y i
      | `Gt -> fun i -> x i > y i)
  | PStr x, PStr y ->
    Some
      (match cmp with
      | `Eq -> fun i -> String.equal (x i) (y i)
      | `Leq -> fun i -> String.compare (x i) (y i) <= 0
      | `Gt -> fun i -> String.compare (x i) (y i) > 0)
  | PBool x, PBool y ->
    Some
      (match cmp with
      | `Eq -> fun i -> x i = y i
      | `Leq -> fun i -> Stdlib.compare (x i) (y i) <= 0
      | `Gt -> fun i -> Stdlib.compare (x i) (y i) > 0)
  | PRow (r1, ix1), PRow (r2, ix2) -> (
    let t1, c1, total1 = row_ident r1 ix1 and t2, c2, total2 = row_ident r2 ix2 in
    if not (String.equal t1 t2) then None
    else
      match cmp with
      | `Eq when total1 || total2 -> Some (fun i -> c1 i = c2 i)
      | `Leq when total1 && total2 -> Some (fun i -> c1 i <= c2 i)
      | `Gt when total1 && total2 -> Some (fun i -> c1 i > c2 i)
      | _ -> None)
  | _ -> None

let rec cpred coldb (p : Term.pred) (input : proj) : (int -> bool) option =
  match p with
  | Term.Kp b -> Some (fun _ -> b)
  | Term.Andp (p, q) -> (
    match (cpred coldb p input, cpred coldb q input) with
    | Some a, Some b -> Some (fun i -> a i && b i)
    | _ -> None)
  | Term.Orp (p, q) -> (
    match (cpred coldb p input, cpred coldb q input) with
    | Some a, Some b -> Some (fun i -> a i || b i)
    | _ -> None)
  | Term.Inv p ->
    Option.map (fun a i -> not (a i)) (cpred coldb p input)
  | Term.Primp a -> (
    match input with
    | PRow (rel, ix) -> (
      match C.column rel a with
      | Some (C.Column.Bools arr) -> Some (fun i -> arr.(ix i))
      | _ -> None)
    | _ -> None)
  | (Term.Eq | Term.Leq | Term.Gt) as cmp -> (
    match input with
    | PPair (a, b) ->
      ccmp
        (match cmp with
        | Term.Eq -> `Eq
        | Term.Leq -> `Leq
        | _ -> `Gt)
        a b
    | _ -> None)
  | Term.Conv q -> (
    match input with
    | PPair (a, b) -> cpred coldb q (PPair (b, a))
    | _ -> None)
  | Term.Oplus (q, f) -> Option.bind (aproj coldb f input) (cpred coldb q)
  | _ -> None

(* Rebase a func/pred applied to a pair onto one of its legs ([leg] is
   π1 or π2): an [iter] element [Pair (env, row)] onto the row, or a
   nested select's [Pair (row, element)] onto the row.  [leg] becomes the
   identity, constants pass through, and anything touching the other leg
   refuses (the row kernel keeps it correct).  A nested
   [iter(p, h) ∘ ⟨id, x⟩] whose [p] and [h] read only their element
   rebases through [x] alone: the pair its [id] carries is never read. *)
let rec func_reroot ~leg : Term.func -> Term.func option = function
  | f when f = leg -> Some Term.Id
  | Term.Kf _ as f -> Some f
  | Term.Compose ((Term.Iter (p, h) as it), Term.Pairf (Term.Id, x))
    when pred_env_free p && func_env_free h ->
    Option.map
      (fun x' -> Term.Compose (it, Term.Pairf (Term.Id, x')))
      (func_reroot ~leg x)
  | Term.Compose (a, b) -> (
    match func_reroot ~leg b with
    | Some Term.Id -> Some a
    | Some b' -> Some (Term.Compose (a, b'))
    | None -> None)
  | Term.Pairf (a, b) -> (
    match (func_reroot ~leg a, func_reroot ~leg b) with
    | Some a', Some b' -> Some (Term.Pairf (a', b'))
    | _ -> None)
  | _ -> None

let rec pred_reroot ~leg : Term.pred -> Term.pred option = function
  | Term.Kp b -> Some (Term.Kp b)
  | Term.Andp (p, q) -> (
    match (pred_reroot ~leg p, pred_reroot ~leg q) with
    | Some p', Some q' -> Some (Term.Andp (p', q'))
    | _ -> None)
  | Term.Orp (p, q) -> (
    match (pred_reroot ~leg p, pred_reroot ~leg q) with
    | Some p', Some q' -> Some (Term.Orp (p', q'))
    | _ -> None)
  | Term.Inv p -> Option.map (fun p' -> Term.Inv p') (pred_reroot ~leg p)
  | Term.Oplus (q, f) ->
    (* [q] applies to [f]'s output, which no longer sees the pair. *)
    Option.map (fun f' -> Term.Oplus (q, f')) (func_reroot ~leg f)
  | _ -> None

(* Nested selects over a set attribute.  The translator writes
   [select m from m in e.a where p] as [iter(p, h) ∘ ⟨id, a⟩]; over a
   columnar scan that is a loop over row [i]'s set, each element [y]
   meeting [p] and [h] as [Pair (row, y)].

   When [a] is a [Sets] column the loop runs over row [i]'s range of its
   element relation ({!C.elements}), whose row [e] is the embedded
   element itself, and [p] and [h] compile through [aproj]/[cpred] on
   the pair leaf [PPair (parent row, element row)]: π1 reads the row's
   typed columns, π2 the element's own, so a stale copy reads as the
   copy it is.  A [p] or [h] the typed compiler refuses, and every set
   attribute without an element relation ([Boxed] columns), run the
   closures below instead: their π1 paths read the row's typed columns,
   and their π2 paths run the row closures on the embedded element —
   again exactly what the row path reads.  A term that reads the pair
   other than through its legs (comparing the pair itself with a value,
   a join) refuses, and the map degrades to the row kernel. *)

(* A func of the row alone, through its columns. *)
let row_proj coldb rel f =
  Option.bind (func_reroot ~leg:Term.Pi1 f) (fun f1 ->
      aproj coldb f1 (PRow (rel, fun i -> i)))

(* A func of [Pair (row i, y)], run as the row path runs it: the parts
   that read only π1 through the row's columns, π2 as [y] itself
   (unresolved), and the rest with the row closures. *)
let rec pair_func coldb rel (f : Term.func) :
    (rctx -> int -> Value.t -> Value.t) option =
  match (row_proj coldb rel f, f) with
  | Some pr, _ ->
    let out = proj_emit pr in
    Some (fun _ i _ -> out i)
  | None, Term.Pi2 -> Some (fun _ _ y -> y)
  | None, Term.Kf _ ->
    let f' = fc f in
    Some (fun ctx _ y -> f' ctx y)
  | None, Term.Compose (a, b) ->
    Option.map
      (fun fb ->
        let a' = fc a in
        fun ctx i y -> a' ctx (fb ctx i y))
      (pair_func coldb rel b)
  | None, Term.Pairf (a, b) -> (
    match (pair_func coldb rel a, pair_func coldb rel b) with
    | Some fa, Some fb -> Some (fun ctx i y -> Value.Pair (fa ctx i y, fb ctx i y))
    | _ -> None)
  | None, _ -> None

(* A predicate on [Pair (row i, y)]: [Whole] when it reads only the row
   (it then keeps or drops the whole set), [Each] otherwise. *)
type npred = Whole of (int -> bool) | Each of (rctx -> int -> Value.t -> bool)

let rec pair_pred coldb rel (p : Term.pred) : npred option =
  let each p =
    match pair_pred coldb rel p with
    | Some (Whole k) -> Some (fun _ i _ -> k i)
    | Some (Each e) -> Some e
    | None -> None
  in
  match
    Option.bind (pred_reroot ~leg:Term.Pi1 p) (fun p1 ->
        cpred coldb p1 (PRow (rel, fun i -> i)))
  with
  | Some keep -> Some (Whole keep)
  | None -> (
    match p with
    | Term.Andp (a, b) -> (
      match (each a, each b) with
      | Some ea, Some eb -> Some (Each (fun ctx i y -> ea ctx i y && eb ctx i y))
      | _ -> None)
    | Term.Orp (a, b) -> (
      match (each a, each b) with
      | Some ea, Some eb -> Some (Each (fun ctx i y -> ea ctx i y || eb ctx i y))
      | _ -> None)
    | Term.Inv a ->
      Option.map (fun ea -> Each (fun ctx i y -> not (ea ctx i y))) (each a)
    | Term.Oplus (q, f) ->
      Option.map
        (fun ff ->
          let q' = pc q in
          Each (fun ctx i y -> q' ctx (ff ctx i y)))
        (pair_func coldb rel f)
    | _ -> None)

(* [iter(p, h) ∘ ⟨id, a⟩] on row [i], [a]'s value given by [set_of]: the
   collection the row path's iter kernel builds, and whether [p] and [h]
   both compiled on the pair leaf.  [elems] gives the element relation,
   its offsets and owners when [a] is a [Sets] column; it is only asked
   for when the whole set cannot be reused.  With [h = π2] the kept
   elements of a canonical set stay in order, so [canonical_set] skips
   the sort. *)
let nested_select coldb rel ~elems p h (set_of : rctx -> int -> Value.t) :
    (bool * (rctx -> int -> Value.t)) option =
  let pred = pair_pred coldb rel p in
  let each = function Whole k -> fun _ i _ -> k i | Each e -> e in
  let finish_kept ctx xs =
    if ctx.dedup = Eval.Eager then canonical_set xs else collection ctx xs
  in
  match pred with
  | Some (Whole keep) when h = Term.Pi2 ->
    (* the predicate keeps or drops row [i]'s set as it stands *)
    Some
      ( false,
        fun ctx i ->
          let s = resolve ctx (set_of ctx i) in
          let ys = as_set ctx s in
          match ctx.dedup with
          | Eval.Deferred -> Value.Bag (if keep i then ys else [])
          | Eval.Eager -> (
            match s with
            | Value.Set _ when keep i -> s
            | _ -> Value.set (if keep i then ys else [])) )
  | _ -> (
    match elems () with
    | Some ((erel : C.relation), off, owner) -> (
      let leaf =
        PPair (PRow (rel, fun e -> owner.(e)), PRow (erel, fun e -> e))
      in
      let rows = erel.C.rows in
      let test =
        match cpred coldb p leaf with
        | Some k -> Some (true, fun _ _ e -> k e)
        | None ->
          Option.map
            (fun pr ->
              let t = each pr in
              (false, fun ctx i e -> t ctx i rows.(e)))
            pred
      in
      let head =
        match aproj coldb h leaf with
        | Some pr ->
          let out = proj_emit pr in
          Some (true, fun _ _ e -> out e)
        | None ->
          Option.map
            (fun f -> (false, fun ctx i e -> f ctx i rows.(e)))
            (pair_func coldb rel h)
      in
      match (test, head) with
      | Some (typed_p, test), Some (typed_h, head) ->
        (* row [i]'s elements [e] to [stop - 1], in source order, with no
           per-row accumulator or closure *)
        let[@tail_mod_cons] rec kept ctx i e stop =
          if e = stop then []
          else begin
            ctx.c.tuples <- ctx.c.tuples + 1;
            if test ctx i e then
              let x = head ctx i e in
              x :: kept ctx i (e + 1) stop
            else kept ctx i (e + 1) stop
          end
        in
        Some
          ( typed_p && typed_h,
            fun ctx i -> finish_kept ctx (kept ctx i off.(i) off.(i + 1)) )
      | _ -> None)
    | None -> (
      match (pred, pair_func coldb rel h) with
      | Some pred, Some head ->
        let test = each pred in
        let[@tail_mod_cons] rec kept ctx i = function
          | [] -> []
          | y :: ys ->
            ctx.c.tuples <- ctx.c.tuples + 1;
            if test ctx i y then
              let x = head ctx i y in
              x :: kept ctx i ys
            else kept ctx i ys
        in
        Some
          ( false,
            fun ctx i ->
              finish_kept ctx
                (kept ctx i (as_set ctx (resolve ctx (set_of ctx i)))) )
      | _ -> None))

(* The value a map's func yields on row [i] of a columnar scan — a typed
   projection, a pair of such values, or a nested select — and how many
   nested selects in it run typed on an element relation. *)
let rec row_emit coldb rel (f : Term.func) :
    (int * (rctx -> int -> Value.t)) option =
  match (proj_of_row coldb f rel, f) with
  | Some pr, _ ->
    let out = proj_emit pr in
    Some (0, fun _ i -> out i)
  | None, Term.Pairf (a, b) -> (
    match (row_emit coldb rel a, row_emit coldb rel b) with
    | Some (ka, ea), Some (kb, eb) ->
      Some (ka + kb, fun ctx i -> Value.Pair (ea ctx i, eb ctx i))
    | _ -> None)
  | None, Term.Compose (Term.Iter (p, h), Term.Pairf (Term.Id, a)) ->
    let elems () =
      match a with
      | Term.Prim attr -> (
        match (C.column rel attr, C.elements coldb rel attr) with
        | ( Some (C.Column.Sets { off; _ }),
            Some ({ C.of_set = Some { C.owner; _ }; _ } as erel) ) ->
          Some (erel, off, owner)
        | _ -> None)
      | _ -> None
    in
    Option.bind (row_emit coldb rel a) (fun (k, set_of) ->
        Option.map
          (fun (typed, out) -> ((if typed then k + 1 else k), out))
          (nested_select coldb rel ~elems p h set_of))
  | None, _ -> None

(* Join-key compilation: the spaces two compiled keys may be matched in.
   [KRow] keys are row indexes into a named relation; [-1] marks a ref
   that resolved to no extent row.  A [-1] key can never equal an
   in-extent key (oid lookup failed, and extent rows carry in-extent
   oids), so joins may treat it as a guaranteed miss — provided at most
   one side can produce [-1], which the callers enforce via [total]. *)
type ckey =
  | KInt of (int -> int)
  | KStr of (int -> string)
  | KRow of string * (int -> int) * bool  (** target, index, total *)

(* [g] as its last attribute step and the path before it. *)
let last_prim (g : Term.func) =
  match g with
  | Term.Prim a -> Some (a, Term.Id)
  | Term.Compose (Term.Prim a, rest) -> Some (a, rest)
  | _ -> None

let ckey_of coldb (g : Term.func) (rel : C.relation) : ckey option =
  match proj_of_row coldb g rel with
  | Some (PInt get) -> Some (KInt get)
  | Some (PStr get) -> Some (KStr get)
  | Some (PRow (t, ix)) ->
    let t, code, total = row_ident t ix in
    Some (KRow (t, code, total))
  | Some (PBool _ | PVal _ | PPair _) -> None
  | None -> (
    (* Allow one final ref step that is total-or-not and inexact: identity
       joins only need the (cls, oid) index, not field equality. *)
    match last_prim g with
    | Some (a, rest) -> (
      match proj_of_row coldb rest rel with
      | Some (PRow (r, ix)) -> (
        match C.column r a with
        | Some (C.Column.Refs { target; idx; total; _ }) ->
          Some (KRow (target, (fun i -> idx.(ix i)), total))
        | _ -> None)
      | _ -> None)
    | None -> None)

(* The target rows a group-join build row's key names, as a loop over
   them: the one row an equality key's ref names, or the row of every
   element of a membership key's set ([Sets]).  Membership compares
   objects by (cls, oid), which is exactly what a row index encodes.
   [-1] codes are skipped: a guaranteed miss when the probe side is
   total, which the caller checks against the returned flag. *)
let build_codes coldb kind (g : Term.func) (rel : C.relation) :
    (string * (int -> (int -> unit) -> unit) * bool) option =
  match kind with
  | `Eq -> (
    match ckey_of coldb g rel with
    | Some (KRow (t, ix, total)) ->
      Some
        ( t,
          (fun j k ->
            let c = ix j in
            if c >= 0 then k c),
          total )
    | _ -> None)
  | `In -> (
    match last_prim g with
    | None -> None
    | Some (a, rest) -> (
      match proj_of_row coldb rest rel with
      | Some (PRow (r, ix)) -> (
        match C.column r a with
        | Some (C.Column.Sets { target; off; idx; total; _ }) ->
          Some
            ( target,
              (fun j k ->
                let r = ix j in
                for e = off.(r) to off.(r + 1) - 1 do
                  let c = idx.(e) in
                  if c >= 0 then k c
                done),
              total )
        | _ -> None)
      | _ -> None))

(* ------------------------------------------------------------------ *)
(* Pipeline lowering.  A compiled spine value is a collection (either a
   stored whole, a streaming producer, or a columnar scan), a
   statically-known pair, or a scalar thunk; the IR description is built
   alongside. *)

type producer = rctx -> src

(* A columnar scan read through a typed projection: a map over [Cols]
   and every map after it, composed onto [p].  [charge] is the tuples one
   selected row costs, one per map stage the projection replaced — except
   that an int projection straight off the scan has always charged its
   rows in the aggregate it feeds, so it starts at 0. *)
type pscan = { src : vec; p : proj; charge : int }

type coll =
  | Whole of (rctx -> Value.t)
  | Pipe of producer
  | Cols of vec    (** columnar scan: selected rows of one relation *)
  | Proj of pscan  (** columnar scan read through a typed projection *)

type cv = { shape : shape; ir : Ir.node }
and shape = Coll of coll | Duo of cv * cv | Sca of (rctx -> Value.t)

type cstate = {
  mutable pipe_slots : int;
  mutable val_slots : int;
  coldb : C.db option;
  mutable kernels : int;          (** operators lowered to column kernels *)
  mutable degrades : string list; (** columnar inputs kept on row kernels *)
}

let degrade st reason = st.degrades <- reason :: st.degrades

(* A projected scan's values in row order.  With a pool, production fans
   out over morsels (it is pure); emission stays sequential, in morsel
   order. *)
let pscan_iter ctx { src = v; p; charge } emit =
  let out = proj_emit p in
  let step x =
    ctx.c.tuples <- ctx.c.tuples + charge;
    emit x
  in
  match ctx.pool with
  | None -> vec_iter ctx v (fun i -> step (out i))
  | Some _ ->
    vec_pre ctx v;
    let chunks =
      morsel_fold ctx ~n:(Array.length v.rel.C.rows) (fun lo hi ->
          let acc = ref [] in
          (match v.vp with
          | None -> for i = hi - 1 downto lo do acc := out i :: !acc done
          | Some keep ->
            for i = hi - 1 downto lo do
              if keep i then acc := out i :: !acc
            done);
          !acc)
    in
    List.iter (List.iter step) chunks

(* A projected scan's distinct values in canonical order, deduplicated
   before anything is boxed: each morsel gathers its unboxed keys (ints,
   strings, bools, row codes) in a table, the tables merge, and only the
   sorted distinct keys are boxed.  Rows of an extent are stored in
   canonical order, so sorted codes are sorted rows.  [None] for
   projections without an unboxed key (boxed reads, pairs, element
   rows). *)
let pscan_set ctx { src = v; p; charge } : Value.t list option =
  let distinct : 'k. (int -> 'k) -> ('k -> Value.t) -> Value.t list option =
   fun get box ->
    vec_pre ctx v;
    let keep = match v.vp with None -> fun _ -> true | Some k -> k in
    let chunks =
      morsel_fold ctx ~n:(Array.length v.rel.C.rows) (fun lo hi ->
          let t = Hashtbl.create 64 and c = ref 0 in
          for i = lo to hi - 1 do
            if keep i then begin
              incr c;
              Hashtbl.replace t (get i) ()
            end
          done;
          (t, !c))
    in
    let all = Hashtbl.create 64 in
    List.iter
      (fun (t, c) ->
        ctx.c.tuples <- ctx.c.tuples + (charge * c);
        Hashtbl.iter (fun k () -> Hashtbl.replace all k ()) t)
      chunks;
    let keys = Hashtbl.fold (fun k () acc -> k :: acc) all [] in
    Some (List.map box (List.sort compare keys))
  in
  match p with
  | PInt g -> distinct g (fun k -> Value.Int k)
  | PStr g -> distinct g (fun s -> Value.Str s)
  | PBool g -> distinct g (fun b -> Value.Bool b)
  | PRow (rel, ix) when Option.is_none rel.C.of_set ->
    distinct ix (fun k -> rel.C.rows.(k))
  | PRow _ | PVal _ | PPair _ -> None

let iter_coll ctx (c : coll) emit =
  match c with
  | Whole f -> List.iter emit (as_set ctx (f ctx))
  | Pipe p -> p ctx emit
  | Cols v -> vec_iter ctx v (fun i -> emit v.rel.C.rows.(i))
  | Proj ps -> pscan_iter ctx ps emit

let drain ctx (p : producer) =
  let acc = ref [] in
  p ctx (fun v -> acc := v :: !acc);
  List.rev !acc

let rec force ctx (v : cv) : Value.t =
  match v.shape with
  | Sca f -> f ctx
  | Duo (a, b) -> Value.Pair (force ctx a, force ctx b)
  | Coll (Whole f) -> f ctx
  | Coll ((Pipe _ | Proj _) as c) -> (
    let boxed () =
      let acc = ref [] in
      iter_coll ctx c (fun x -> acc := x :: !acc);
      finish ctx !acc
    in
    match c with
    | Proj ps when ctx.dedup = Eval.Eager -> (
      match pscan_set ctx ps with Some xs -> Value.Set xs | None -> boxed ())
    | _ -> boxed ())
  | Coll (Cols v) -> (
    (* selection preserves canonical row order, so [Eager] needs no sort *)
    match ctx.dedup with
    | Eval.Eager -> Value.Set (vec_rows ctx v)
    | Eval.Deferred -> Value.Bag (vec_rows ctx v))

let as_coll (v : cv) : coll =
  match v.shape with
  | Coll c -> c
  | Sca f -> Whole f
  | Duo _ -> Whole (fun ctx -> force ctx v)

(* Re-running a producer would recompute the whole upstream pipeline, so
   any input consumed more than once (⟨f,g⟩, con, dynamic pair splits) is
   materialized into a per-run slot the first time it is demanded. *)
let rec share st (v : cv) : cv =
  match v.shape with
  | Coll (Pipe p) ->
    let slot = st.pipe_slots in
    st.pipe_slots <- st.pipe_slots + 1;
    let materialize ctx =
      match ctx.pipes.(slot) with
      | Some arr -> arr
      | None ->
        let arr = Array.of_list (drain ctx p) in
        ctx.pipes.(slot) <- Some arr;
        arr
    in
    {
      shape = Coll (Pipe (fun ctx emit -> Array.iter emit (materialize ctx)));
      ir = Ir.Shared (slot, v.ir);
    }
  | Duo (a, b) ->
    let a = share st a and b = share st b in
    { shape = Duo (a, b); ir = Ir.PairNode (a.ir, b.ir) }
  | Sca f ->
    let slot = st.val_slots in
    st.val_slots <- st.val_slots + 1;
    {
      shape =
        Sca
          (fun ctx ->
            match ctx.vals.(slot) with
            | Some v -> v
            | None ->
              let v = f ctx in
              ctx.vals.(slot) <- Some v;
              v);
      ir = Ir.Shared (slot, v.ir);
    }
  (* Columnar scans re-run their (pure) selection per consumption — cheaper
     than materializing, and [pre] effects are memoized via value slots. *)
  | Coll (Whole _) | Coll (Cols _) | Coll (Proj _) -> v

let as_duo st (v : cv) : cv * cv =
  match v.shape with
  | Duo (a, b) -> (a, b)
  | _ ->
    let v = share st v in
    let f ctx = force ctx v in
    ( { shape = Sca (fun ctx -> fst (as_pair ctx (f ctx))); ir = Ir.Scalar (Term.Pi1, v.ir) },
      { shape = Sca (fun ctx -> snd (as_pair ctx (f ctx))); ir = Ir.Scalar (Term.Pi2, v.ir) } )

let rec cv_of_value st (v : Value.t) : cv =
  match v with
  | Value.Hole h -> unsupported "pattern hole ?%s in query argument" h
  | Value.Pair (a, b) ->
    let ca = cv_of_value st a and cb = cv_of_value st b in
    { shape = Duo (ca, cb); ir = Ir.PairNode (ca.ir, cb.ir) }
  | Value.Named n
    when Option.is_some
           (Option.bind st.coldb (fun cd -> C.relation cd n)) ->
    let rel =
      Option.get (Option.bind st.coldb (fun cd -> C.relation cd n))
    in
    { shape = Coll (Cols { rel; vp = None; pre = None }); ir = Ir.Scan v }
  | Value.Named _ | Value.Set _ | Value.Bag _ | Value.List _ ->
    { shape = Coll (Whole (fun ctx -> resolve ctx v)); ir = Ir.Scan v }
  | v -> { shape = Sca (fun ctx -> resolve ctx v); ir = Ir.Leaf v }

let scalar_apply (f : Term.func) (input : cv) : cv =
  let f' = fc f in
  { shape = Sca (fun ctx -> f' ctx (force ctx input)); ir = Ir.Scalar (f, input.ir) }

let pipe p ir = { shape = Coll (Pipe p); ir }

(* The compose spine, outermost first. *)
let rec compose_spine f acc =
  match f with
  | Term.Compose (a, b) -> compose_spine a (compose_spine b acc)
  | f -> f :: acc

(* Locate the untangled hidden-join triple — group-by over an unnested
   hash join — anywhere on an outermost-first compose spine. *)
let rec split_group_join acc = function
  | (Term.Nest (Term.Pi1, Term.Pi2) as n)
    :: (Term.Times (Term.Unnest (Term.Pi1, Term.Pi2), Term.Id) as t)
    :: (Term.Pairf (Term.Join (p, Term.Times (Term.Id, g)), Term.Pi1) as pf)
    :: inner ->
    Some (List.rev acc, (p, g, n, t, pf), inner)
  | x :: rest -> split_group_join (x :: acc) rest
  | [] -> None

(* A row kernel as a pipeline stage over one or two streamed collections.
   Join and nest tables start at 1024 buckets, set-op tables at 256. *)
let row_stage k c ir = pipe (fun ctx emit -> k ctx (iter_coll ctx c) emit) ir

let row_binary k ~size ca cb ir =
  pipe
    (fun ctx emit -> k ctx ~size (iter_coll ctx ca) (iter_coll ctx cb) emit)
    ir

let rec lower st (f : Term.func) (input : cv) : cv =
  match f with
  | Term.Compose (a, b) when st.coldb <> None -> (
    (* Flatten the spine so compose associativity cannot hide the fusable
       triple, lower the stages inside it, then fuse — or fall back to
       lowering the triple stage by stage. *)
    match split_group_join [] (compose_spine f []) with
    | Some (outer, (p, g, n, t, pf), inner) ->
      let app stages base =
        List.fold_left (fun acc s -> lower st s acc) base (List.rev stages)
      in
      let base = app inner input in
      let mid =
        match lower_fused_group st p g base with
        | Some cv -> cv
        | None -> lower st n (lower st t (lower st pf base))
      in
      app outer mid
    | None -> lower st a (lower st b input))
  | Term.Compose (a, b) -> lower st a (lower st b input)
  | Term.Id -> (
    match input.shape with
    | Sca f -> { input with shape = Sca (fun ctx -> resolve ctx (f ctx)) }
    | Coll (Whole f) ->
      { input with shape = Coll (Whole (fun ctx -> resolve ctx (f ctx))) }
    | Coll (Pipe _) | Coll (Cols _) | Coll (Proj _) | Duo _ -> input)
  | Term.Pi1 -> fst (as_duo st input)
  | Term.Pi2 -> snd (as_duo st input)
  | Term.Times (a, b) ->
    let l, r = as_duo st input in
    let la = lower st a l and lb = lower st b r in
    { shape = Duo (la, lb); ir = Ir.PairNode (la.ir, lb.ir) }
  | Term.Pairf (a, b) ->
    let s = share st input in
    let la = lower st a s and lb = lower st b s in
    { shape = Duo (la, lb); ir = Ir.PairNode (la.ir, lb.ir) }
  | Term.Kf c -> cv_of_value st c
  | Term.Cf (f, c) ->
    let cc = cv_of_value st c in
    lower st f { shape = Duo (cc, input); ir = Ir.PairNode (cc.ir, input.ir) }
  | Term.Con (p, a, b) ->
    let s = share st input in
    let p' = pc p in
    let la = lower st a s and lb = lower st b s in
    let ir = Ir.Branch (p, s.ir, la.ir, lb.ir) in
    (match (la.shape, lb.shape) with
    | Coll ca, Coll cb ->
      pipe
        (fun ctx emit ->
          if p' ctx (force ctx s) then iter_coll ctx ca emit
          else iter_coll ctx cb emit)
        ir
    | _ ->
      {
        shape =
          Sca
            (fun ctx ->
              if p' ctx (force ctx s) then force ctx la else force ctx lb);
        ir;
      })
  | Term.Sng ->
    {
      shape = Coll (Whole (fun ctx -> Value.set [ resolve ctx (force ctx input) ]));
      ir = Ir.SngStage input.ir;
    }
  | Term.Flat -> row_stage k_flat (as_coll input) (Ir.Flatten input.ir)
  | Term.Iterate (p, f) -> (
    let ir =
      match (p, f) with
      | Term.Kp true, g -> Ir.Map (g, input.ir)
      | q, Term.Id -> Ir.Filter (q, input.ir)
      | q, g -> Ir.Map (g, Ir.Filter (q, input.ir))
    in
    match (as_coll input, p) with
    | Cols v, _ -> lower_scan_cols st p f v ir
    | Proj ps, Term.Kp true -> (
      (* a map after a projected scan composes onto its projection *)
      match aproj (Option.get st.coldb) f ps.p with
      | Some q ->
        st.kernels <- st.kernels + 1;
        { shape = Coll (Proj { ps with p = q; charge = ps.charge + 1 }); ir }
      | None -> row_stage (k_iterate p f) (Proj ps) ir)
    | c, _ -> row_stage (k_iterate p f) c ir)
  | Term.Iter (p, f) -> (
    let e_cv, b_cv = as_duo st input in
    let ir = Ir.IterEnv (p, f, e_cv.ir, b_cv.ir) in
    let row c =
      let k = k_iter p f in
      pipe (fun ctx emit -> k ctx (force ctx e_cv) (iter_coll ctx c) emit) ir
    in
    match as_coll b_cv with
    | Cols v -> (
      (* Env-free body: rebase π2-rooted paths onto the row and run the
         columnar scan; the environment is still forced once per run so
         its errors surface exactly as on the row path. *)
      match (pred_reroot ~leg:Term.Pi2 p, func_reroot ~leg:Term.Pi2 f) with
      | Some p_r, Some f_r ->
        let v = vec_add_pre v (fun ctx -> ignore (force ctx e_cv)) in
        lower_scan_cols st p_r f_r v ir
      | _ ->
        degrade st "iter: body reads the loop environment";
        row (Cols v))
    | c -> row c)
  | Term.Join (p, f) -> lower_join st p f input
  | Term.Nest (f, g) ->
    let a_cv, b_cv = as_duo st input in
    row_binary (k_nest f g) ~size:1024 (as_coll a_cv) (as_coll b_cv)
      (Ir.HashGroup { key = f; payload = g; src = a_cv.ir; groups = b_cv.ir })
  | Term.Unnest (f, g) ->
    row_stage (k_unnest f g) (as_coll input) (Ir.UnnestStage (f, g, input.ir))
  | Term.Setop op ->
    let a_cv, b_cv = as_duo st input in
    let ir =
      match op with
      | Term.Union -> Ir.Union (a_cv.ir, b_cv.ir)
      | Term.Inter -> Ir.Inter (a_cv.ir, b_cv.ir)
      | Term.Diff -> Ir.Diff (a_cv.ir, b_cv.ir)
    in
    row_binary (k_setop op) ~size:256 (as_coll a_cv) (as_coll b_cv) ir
  | Term.Agg op -> lower_agg st op input
  | Term.Prim _ | Term.Arith _ -> scalar_apply f input
  | Term.Fhole h -> unsupported "pattern hole ?%s" h

and lower_join st p f input =
  let a_cv, b_cv = as_duo st input in
  let ca = as_coll a_cv and cb = as_coll b_cv in
  let row ir = row_binary (k_join p f) ~size:1024 ca cb ir in
  match Eval.hash_joinable p with
  | None -> row (Ir.LoopJoin (p, f, a_cv.ir, b_cv.ir))
  | Some (kind, g1, g2, residual) -> (
    let ir =
      Ir.HashJoin
        {
          kind = (match kind with `Eq -> Ir.Eq | `In -> Ir.Membership);
          probe_key = g1;
          build_key = g2;
          residual;
          emit = f;
          probe = a_cv.ir;
          build = b_cv.ir;
        }
    in
    match (kind, ca, cb, st.coldb) with
    | `Eq, Cols va, Cols vb, Some coldb -> (
      (* Unboxed keys: probe/build on int, string or row-index keys
         instead of hashing boxed values; a match continues exactly as
         in the row join.  [-1] row keys (refs resolving to no extent
         row) can never match an in-extent key, so they are skipped —
         sound as long as at most one side can produce them. *)
      let step = join_emit residual f in
      let col_join : type k. (int -> k) -> (int -> k) -> skip:(k -> bool) -> cv
          =
       fun ga gb ~skip ->
        st.kernels <- st.kernels + 1;
        pipe
          (fun ctx emit ->
            let tbl : (k, int list) Hashtbl.t = Hashtbl.create 1024 in
            vec_iter ctx vb (fun j ->
                ctx.c.builds <- ctx.c.builds + 1;
                let key = gb j in
                if not (skip key) then
                  Hashtbl.replace tbl key
                    (j
                    ::
                    (match Hashtbl.find_opt tbl key with
                    | Some l -> l
                    | None -> [])));
            vec_iter ctx va (fun i ->
                ctx.c.probes <- ctx.c.probes + 1;
                let key = ga i in
                if not (skip key) then
                  match Hashtbl.find_opt tbl key with
                  | None -> ()
                  | Some js ->
                    let x = va.rel.C.rows.(i) in
                    List.iter (fun j -> step ctx emit x vb.rel.C.rows.(j)) js))
          ir
      in
      match (ckey_of coldb g1 va.rel, ckey_of coldb g2 vb.rel) with
      | Some (KInt ga), Some (KInt gb) -> col_join ga gb ~skip:(fun _ -> false)
      | Some (KStr ga), Some (KStr gb) -> col_join ga gb ~skip:(fun _ -> false)
      | Some (KRow (t1, ga, tot_a)), Some (KRow (t2, gb, tot_b))
        when String.equal t1 t2 && (tot_a || tot_b) ->
        col_join ga gb ~skip:(fun k -> k < 0)
      | _ ->
        degrade st
          (Fmt.str "join keys over %s/%s not columnar" va.rel.C.name
             vb.rel.C.name);
        row ir)
    | `In, Cols va, Cols vb, Some _ ->
      (* only the fused group-join runs a membership key on the columns *)
      degrade st
        (Fmt.str "membership join over %s/%s not columnar" va.rel.C.name
           vb.rel.C.name);
      row ir
    | _ -> row ir)

(* Columnar feeds get unboxed kernels: an int projection aggregates with
   an int hash set as the [Eager] dedup barrier (never touching boxed
   values), and Count over a bare scan is just the selected-row count —
   extent rows are distinct, so dedup cannot change it.  Both fan out
   over morsels; partials merge in morsel order, so results are identical
   at any pool size.  Every other feed runs the row aggregate kernel. *)
and lower_agg st op input =
  let ir = Ir.AggStage (op, input.ir) in
  match as_coll input with
  | Proj { src; p = PInt iget; charge } ->
    st.kernels <- st.kernels + 1;
    { shape = Sca (icol_agg op ~charge src iget); ir }
  | Cols v when op = Term.Count ->
    st.kernels <- st.kernels + 1;
    {
      shape =
        Sca
          (fun ctx ->
            vec_pre ctx v;
            let n = Array.length v.rel.C.rows in
            let keep =
              match v.vp with None -> fun _ -> true | Some k -> k
            in
            let chunks =
              morsel_fold ctx ~n (fun lo hi ->
                  let c = ref 0 in
                  for i = lo to hi - 1 do
                    if keep i then incr c
                  done;
                  !c)
            in
            let c = List.fold_left ( + ) 0 chunks in
            ctx.c.tuples <- ctx.c.tuples + c;
            Value.Int c);
      ir;
    }
  | c ->
    let k = k_agg op in
    { shape = Sca (fun ctx -> k ctx (iter_coll ctx c)); ir }

(* [charge] is the projection's own tuples per row, on top of the one the
   aggregate charges. *)
and icol_agg op ~charge (src : vec) (iget : int -> int) : rctx -> Value.t =
 fun ctx ->
  let charged c = ctx.c.tuples <- ctx.c.tuples + ((charge + 1) * c) in
  vec_pre ctx src;
  let n = Array.length src.rel.C.rows in
  let keep = match src.vp with None -> (fun _ -> true) | Some k -> k in
  match op with
  | Term.Count | Term.Sum -> (
    match ctx.dedup with
    | Eval.Deferred ->
      let chunks =
        morsel_fold ctx ~n (fun lo hi ->
            let c = ref 0 and s = ref 0 in
            for i = lo to hi - 1 do
              if keep i then begin
                incr c;
                s := !s + iget i
              end
            done;
            (!c, !s))
      in
      let c, s =
        List.fold_left (fun (c, s) (c', s') -> (c + c', s + s')) (0, 0) chunks
      in
      charged c;
      Value.Int (match op with Term.Count -> c | _ -> s)
    | Eval.Eager ->
      (* the interpreter aggregates a canonical set: distinct values only *)
      let chunks =
        morsel_fold ctx ~n (fun lo hi ->
            let t : (int, unit) Hashtbl.t = Hashtbl.create 256 in
            let c = ref 0 in
            for i = lo to hi - 1 do
              if keep i then begin
                incr c;
                Hashtbl.replace t (iget i) ()
              end
            done;
            (t, !c))
      in
      let seen : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
      let sum = ref 0 and distinct = ref 0 in
      List.iter
        (fun (t, c) ->
          charged c;
          Hashtbl.iter
            (fun k () ->
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.replace seen k ();
                incr distinct;
                sum := !sum + k
              end)
            t)
        chunks;
      Value.Int (match op with Term.Count -> !distinct | _ -> !sum))
  | Term.Max | Term.Min ->
    let better = match op with Term.Max -> ( > ) | _ -> ( < ) in
    let chunks =
      morsel_fold ctx ~n (fun lo hi ->
          let m = ref None and c = ref 0 in
          for i = lo to hi - 1 do
            if keep i then begin
              incr c;
              let x = iget i in
              match !m with
              | None -> m := Some x
              | Some cur -> if better x cur then m := Some x
            end
          done;
          (!m, !c))
    in
    let best =
      List.fold_left
        (fun acc (m, c) ->
          charged c;
          match (acc, m) with
          | None, m -> m
          | Some a, Some b -> Some (if better b a then b else a)
          | Some a, None -> Some a)
        None chunks
    in
    (match best with
    | Some v -> Value.Int v
    | None ->
      error "%s of empty set"
        (match op with Term.Max -> "max" | _ -> "min"))

(* Filter/map over a columnar scan.  The predicate folds into the scan's
   selection (chained filters become one conjunction, tested in a single
   pass at consumption); a typed projection makes a projected scan
   ([Proj]), and any other map — pairs, nested selects — an emit loop
   over the selected rows.  A predicate or projection the columns cannot
   express runs the row iterate kernel over the scan, counted as a
   degrade. *)
and lower_scan_cols st (p : Term.pred) (f : Term.func) (v : vec) ir : cv =
  let coldb =
    match st.coldb with
    | Some cd -> cd
    | None -> assert false (* Cols values only exist under a coldb *)
  in
  match cpred coldb p (PRow (v.rel, fun i -> i)) with
  | None ->
    degrade st (Fmt.str "filter over %s not columnar" v.rel.C.name);
    row_stage (k_iterate p f) (Cols v) ir
  | Some vp -> (
    st.kernels <- st.kernels + 1;
    let v = vec_conj v vp in
    match f with
    | Term.Id -> { shape = Coll (Cols v); ir }
    | f -> (
      match proj_of_row coldb f v.rel with
      | Some pr ->
        let charge = match pr with PInt _ -> 0 | _ -> 1 in
        { shape = Coll (Proj { src = v; p = pr; charge }); ir }
      | None -> (
        match row_emit coldb v.rel f with
        | Some (typed, out) ->
          st.kernels <- st.kernels + typed;
          pipe
            (fun ctx emit ->
              vec_iter ctx v (fun i ->
                  ctx.c.tuples <- ctx.c.tuples + 1;
                  emit (out ctx i)))
            ir
        | None ->
          degrade st (Fmt.str "map over %s not columnar" v.rel.C.name);
          row_stage (k_iterate (Term.Kp true) f) (Cols v) ir)))

(* The fused group-join kernel: [nest(π1,π2) ∘ (unnest(π1,π2) × id) ∘
   ⟨join(p, id × g), π1⟩] over a pair of columnar scans (probe side D,
   build side E), for an equality [p] on a ref key or a membership [p]
   on a set-of-refs key ([in ⊕ (g1 × a)], the Garage Query's).  One pass
   over E appends each payload to a dense bucket array at every target
   row its key names; one pass over D emits every probe row with its
   group — no boxed hashing anywhere.  The build fans out over morsels
   when the payload is context-read-only; bucket lists merge in morsel
   order into exactly the lists one inline chunk builds. *)
and lower_fused_group st (p : Term.pred) (g : Term.func) (input : cv) :
    cv option =
  match (st.coldb, input.shape) with
  | Some coldb, Duo (a_cv, b_cv) -> (
    match (a_cv.shape, b_cv.shape) with
    | Coll (Cols vd), Coll (Cols ve) -> (
      match Eval.hash_joinable p with
      | Some (kind, g1, g2, None) -> (
        match (ckey_of coldb g1 vd.rel, build_codes coldb kind g2 ve.rel) with
        | Some (KRow (t1, gd, tot_d)), Some (t2, codes, tot_e)
          when String.equal t1 t2 && (tot_d || tot_e) -> (
          match C.relation coldb t1 with
          | None -> None
          | Some trel ->
            (* payload: the elements Unnest flattens out of [g e].
               Compiled payloads only read the context (resolve/as_set
               consult ctx.db), so they are safe to run on pool domains;
               the fc fallback may touch memo cells and counters, so it
               keeps the build sequential. *)
            let parallel_ok, pay =
              match g with
              | Term.Compose (Term.Sng, h) -> (
                match proj_of_row coldb h ve.rel with
                | Some pr ->
                  let out = proj_emit pr in
                  (true, fun ctx j -> [ resolve ctx (out j) ])
                | None ->
                  let h' = fc h in
                  ( false,
                    fun ctx j -> [ resolve ctx (h' ctx ve.rel.C.rows.(j)) ] ))
              | g -> (
                match proj_of_row coldb g ve.rel with
                | Some pr ->
                  let out = proj_emit pr in
                  (true, fun ctx j -> as_set ctx (out j))
                | None ->
                  let g' = fc g in
                  (false, fun ctx j -> as_set ctx (g' ctx ve.rel.C.rows.(j))))
            in
            st.kernels <- st.kernels + 1;
            let ir =
              Ir.HashGroup
                {
                  key = Term.Pi1;
                  payload = Term.Pi2;
                  src =
                    Ir.UnnestStage
                      ( Term.Pi1,
                        Term.Pi2,
                        Ir.HashJoin
                          {
                            kind =
                              (match kind with
                              | `Eq -> Ir.Eq
                              | `In -> Ir.Membership);
                            probe_key = g1;
                            build_key = g2;
                            residual = None;
                            emit = Term.Times (Term.Id, g);
                            probe = a_cv.ir;
                            build = b_cv.ir;
                          } );
                  groups = a_cv.ir;
                }
            in
            let nd = Array.length trel.C.rows in
            let keep = match ve.vp with None -> fun _ -> true | Some k -> k in
            Some
              (pipe
                 (fun ctx emit ->
                   vec_pre ctx ve;
                   (* Without a pool — or with a payload that must stay on
                      this domain — the build is one inline chunk whose
                      buckets are used as they stand. *)
                   let bctx =
                     if parallel_ok then ctx else { ctx with pool = None }
                   in
                   let chunks =
                     morsel_fold bctx ~n:(Array.length ve.rel.C.rows)
                       (fun lo hi ->
                         let b = Array.make nd [] in
                         let built = ref 0 and flowed = ref 0 in
                         for j = lo to hi - 1 do
                           if keep j then begin
                             incr built;
                             let xs = ref None in
                             codes j (fun k ->
                                 let l =
                                   match !xs with
                                   | Some l -> l
                                   | None ->
                                     let l = pay bctx j in
                                     xs := Some l;
                                     l
                                 in
                                 flowed := !flowed + List.length l;
                                 b.(k) <- List.rev_append l b.(k))
                           end
                         done;
                         (b, !built, !flowed))
                   in
                   List.iter
                     (fun (_, built, flowed) ->
                       ctx.c.builds <- ctx.c.builds + built;
                       ctx.c.tuples <- ctx.c.tuples + flowed)
                     chunks;
                   let buckets =
                     match chunks with
                     | [ (b, _, _) ] -> b
                     | _ ->
                       let buckets = Array.make nd [] in
                       (* each chunk's lists are newest-first, so later
                          chunks go in front *)
                       List.iter
                         (fun (b, _, _) ->
                           Array.iteri
                             (fun k l ->
                               if l <> [] then buckets.(k) <- l @ buckets.(k))
                             b)
                         chunks;
                       buckets
                   in
                   vec_iter ctx vd (fun i ->
                       ctx.c.probes <- ctx.c.probes + 1;
                       let k = gd i in
                       let grp =
                         if k >= 0 && k < nd then buckets.(k) else []
                       in
                       emit
                         (Value.Pair (vd.rel.C.rows.(i), collection ctx grp))))
                 ir))
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)

type compiled = {
  query : Term.query;
  plan : cv;
  ir : Ir.node;
  pipe_slots : int;
  val_slots : int;
  coldb : C.db option;
  kernels : int;
  degrades : string list;
}

let ir c = c.ir
let compiled_query c = c.query
let col_kernels c = c.kernels
let col_degrades c = c.degrades

let compile ?coldb (q : Term.query) : compiled =
  Telemetry.span ~cat:"exec" "exec.compile" @@ fun () ->
  let st =
    { pipe_slots = 0; val_slots = 0; coldb; kernels = 0; degrades = [] }
  in
  let plan = lower st q.Term.body (cv_of_value st q.Term.arg) in
  if Telemetry.enabled () then begin
    Telemetry.count ~n:st.kernels "exec.col_kernels";
    Telemetry.count ~n:(List.length st.degrades) "exec.col_degrades"
  end;
  {
    query = q;
    plan;
    ir = plan.ir;
    pipe_slots = st.pipe_slots;
    val_slots = st.val_slots;
    coldb;
    kernels = st.kernels;
    degrades = List.rev st.degrades;
  }

let compile_opt ?coldb q =
  match compile ?coldb q with
  | c -> Ok c
  | exception Unsupported reason -> Error reason

let execute ?(dedup = Eval.Eager) ?pool ~db (c : compiled) :
    Value.t * counters =
  (match c.coldb with
  | Some cd when not (C.source cd == db) ->
    (* Column indexes are physical row positions in the database the plan
       was compiled against; running over anything else would silently
       read the wrong store. *)
    error
      "columnar plan executed against a different database — recompile \
       against its columnar view"
  | _ -> ());
  let ctx =
    {
      db;
      dedup;
      pipes = Array.make (max 1 c.pipe_slots) None;
      vals = Array.make (max 1 c.val_slots) None;
      pool;
      c = fresh_counters ();
    }
  in
  Telemetry.span ~cat:"exec" "exec.run" @@ fun () ->
  (* A streamed root, deduplicated as it arrives. *)
  let stream (p : producer) =
    match dedup with
    | Eval.Eager ->
      (* Stream through a hash dedup so a duplicate-heavy stream sorts
         only its distinct elements — the canonical set comes out
         identical to the interpreter's either way.  On a mostly
         distinct stream the table pays a hash per element and saves
         nothing, so the duplicate ratio is checked on geometrically
         growing prefixes (256, 512, ...): a distinct-heavy stream
         drops the table within the first few hundred elements instead
         of hashing a 4k prefix first.  Column kernels emit in row
         order, so the stream is often canonical already and
         [canonical_set] skips the final sort; otherwise it sort-uniqs
         the raw stream, which is exactly the interpreter's cost. *)
      let seen = VH.create 1024 in
      let deduping = ref true in
      let inspected = ref 0 in
      let next_check = ref 256 in
      let acc = ref [] in
      p ctx (fun x ->
          if !deduping then begin
            let before = VH.length seen in
            VH.replace seen x ();
            if VH.length seen <> before then acc := x :: !acc;
            incr inspected;
            if !inspected = !next_check then begin
              if 4 * VH.length seen > 3 * !inspected then begin
                deduping := false;
                VH.reset seen
              end
              else next_check := 2 * !next_check
            end
          end
          else acc := x :: !acc);
      canonical_set (List.rev !acc)
    | Eval.Deferred ->
      (* The interpreter's finalized bag, without its sort when the
         stream already arrived in canonical order. *)
      canonical_set (List.map Eval.finalize (drain ctx p))
  in
  let v =
    match c.plan.shape with
    | Coll (Pipe p) -> stream p
    | Coll (Proj ps) -> (
      (* A typed root is deduplicated on its unboxed values under either
         dedup: Deferred finalizes its bag to the same canonical set. *)
      match pscan_set ctx ps with
      | Some xs -> Value.Set xs
      | None -> stream (fun ctx -> pscan_iter ctx ps))
    | _ -> (
      (* [force] canonicalises columnar terminals under Eager too *)
      let v = force ctx c.plan in
      match dedup with Eval.Eager -> v | Eval.Deferred -> Eval.finalize v)
  in
  if Telemetry.enabled () then (
    Telemetry.count ~n:ctx.c.tuples "exec.tuples";
    Telemetry.count ~n:ctx.c.probes "exec.probes";
    Telemetry.count ~n:ctx.c.builds "exec.builds";
    if ctx.c.morsels > 0 then Telemetry.count ~n:ctx.c.morsels "exec.morsels");
  (v, ctx.c)

(* ------------------------------------------------------------------ *)
(* Backend selection and the interpreter fallback. *)

type backend = Interp of Eval.backend | Compiled

let backend_name = function
  | Interp Eval.Naive -> "interp-naive"
  | Interp Eval.Hashed -> "interp"
  | Compiled -> "compiled"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "compiled" -> Ok Compiled
  | "interp" | "interp-hashed" | "interpreted" -> Ok (Interp Eval.Hashed)
  | "interp-naive" -> Ok (Interp Eval.Naive)
  | s -> Error (Fmt.str "unknown execution backend %S (expected compiled|interp|interp-naive)" s)

type stats = {
  backend : backend;  (** the backend that actually ran *)
  fell_back : bool;
  fallback_reason : string option;
  compile_us : float;
  run_us : float;
  tuples : int;
  probes : int;
  builds : int;
  stages : int;
  scalar_nodes : int;
  layout : layout;            (** store layout the plan was compiled for *)
  jobs : int;                 (** pool size morsel kernels could fan out to *)
  morsels : int;
      (** morsels dispatched to the pool: ⌈n / 65 536⌉ per fanned-out
          kernel, none for an inline run *)
  col_kernels : int;          (** operators lowered to column kernels *)
  col_degrades : string list; (** columnar inputs kept on row kernels *)
}

let fallbacks = Atomic.make 0
let fallback_count () = Atomic.get fallbacks

let run_interp ~backend ~dedup ~db q =
  let t0 = Telemetry.now () in
  let ctx = Eval.ctx ~db ~backend ~dedup () in
  let v = Eval.run ctx q in
  let t1 = Telemetry.now () in
  ( v,
    {
      backend = Interp backend;
      fell_back = false;
      fallback_reason = None;
      compile_us = 0.;
      run_us = (t1 -. t0) *. 1e6;
      tuples = ctx.Eval.counters.Eval.tuples;
      probes = 0;
      builds = 0;
      stages = 0;
      scalar_nodes = 0;
      layout = Row;
      jobs = 1;
      morsels = 0;
      col_kernels = 0;
      col_degrades = [];
    } )

(* Borrow the caller's pool, or spin one up for the duration of [k] when
   more than one job is asked for.  [jobs = 1] never spawns a domain. *)
let with_exec_pool ?pool ~jobs k =
  match pool with
  | Some p -> k (Some p)
  | None ->
    if jobs <= 1 then k None
    else Pool.with_pool ~jobs (fun p -> k (Some p))

(* A transient pool is only worth spawning when some columnar kernel can
   actually fan out — i.e. a scanned relation spans more than one morsel.
   Row plans and small columnar stores run the sequential kernels either
   way ([morsel_fold] ignores the pool at or below [morsel_rows]), so at
   those sizes domain spawn/join would be pure coordination overhead.
   Caller-provided pools are unaffected: borrowing costs nothing and the
   per-kernel gate in [morsel_fold] already keeps tiny inputs sequential. *)
let can_fan_out = function
  | None -> false
  | Some cdb ->
    List.exists
      (fun (_, (r : C.relation)) -> Array.length r.C.rows > morsel_rows)
      (C.relations cdb)

let run ?(backend = Compiled) ?(dedup = Eval.Eager) ?(layout = Row)
    ?(jobs = 1) ?pool ?coldb ~db (q : Term.query) : Value.t * stats =
  match backend with
  | Interp b -> run_interp ~backend:b ~dedup ~db q
  | Compiled -> (
    let coldb =
      match layout with
      | Row -> None
      | Columnar -> (
        match coldb with Some _ as cd -> cd | None -> Some (C.of_db db))
    in
    let t0 = Telemetry.now () in
    match compile ?coldb q with
    | exception Unsupported reason ->
      Atomic.incr fallbacks;
      Telemetry.count "exec.fallback";
      let v, s = run_interp ~backend:Eval.Hashed ~dedup ~db q in
      (v, { s with fell_back = true; fallback_reason = Some reason })
    | c ->
      let t1 = Telemetry.now () in
      let jobs = if can_fan_out coldb then jobs else 1 in
      with_exec_pool ?pool ~jobs @@ fun pool ->
      let v, counters = execute ~dedup ?pool ~db c in
      let t2 = Telemetry.now () in
      ( v,
        {
          backend = Compiled;
          fell_back = false;
          fallback_reason = None;
          compile_us = (t1 -. t0) *. 1e6;
          run_us = (t2 -. t1) *. 1e6;
          tuples = counters.tuples;
          probes = counters.probes;
          builds = counters.builds;
          stages = Ir.stages c.ir;
          scalar_nodes = Ir.scalar_nodes c.ir;
          layout;
          jobs = (match pool with Some p -> Pool.size p | None -> 1);
          morsels = counters.morsels;
          col_kernels = c.kernels;
          col_degrades = c.degrades;
        } ))

(* Results are compared modulo set ordering, deferred bags, and Named
   indirection — the oracle equivalence the differential tests pin. *)
let agree ~db a b =
  let ctx = Eval.ctx ~db () in
  Value.equal
    (Eval.finalize (Eval.deep_resolve ctx a))
    (Eval.finalize (Eval.deep_resolve ctx b))

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "backend=%s%s layout=%s jobs=%d compile=%.1fus run=%.1fus stages=%d \
     scalar-nodes=%d tuples=%d probes=%d builds=%d col-kernels=%d \
     morsels=%d%s"
    (backend_name s.backend)
    (match s.fallback_reason with
    | Some r when s.fell_back -> Fmt.str " (fell back: %s)" r
    | _ -> "")
    (layout_name s.layout) s.jobs s.compile_us s.run_us s.stages
    s.scalar_nodes s.tuples s.probes s.builds s.col_kernels s.morsels
    (match s.col_degrades with
    | [] -> ""
    | ds -> Fmt.str " degrades=[%s]" (String.concat "; " ds))
