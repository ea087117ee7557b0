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
   (compare with {!agree}).  Plans run under [Eager] dedup only, the one
   discipline the optimizer picks; the correctness argument for running
   the inside of a pipeline in bag discipline anyway: every stage except
   aggregation is duplicate-insensitive with respect to the final
   canonical set, embedded collections are canonicalised exactly where
   the interpreter canonicalises them, and Count/Sum insert a hash dedup
   barrier so multiplicities are never observed.

   Plans the compiler does not support (pattern holes anywhere) raise
   {!Unsupported}; {!run} catches it, counts the fallback, and delegates
   to the interpreter — explicitly slower, never wrong.  A [Deferred]
   run takes the same fallback. *)

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
  pipes : Value.t array option array;  (** materialized shared pipelines *)
  vals : Value.t option array;         (** memoized shared scalars *)
  pool : Pool.t option;                (** morsel fan-out for pure kernels *)
  c : counters;
}

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  (* bounded: a group emitted with thousands of members hashes its first
     few, and [equal] settles the rest *)
  let hash = Value.shallow_hash 3
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
  | v -> error "expected a pair, got %a" Value.pp_brief v

(* [cmp] on a pair's resolved legs.  Matching the pair in place, rather
   than through [as_pair], allocates no tuple per comparison. *)
let compare_legs ctx v cmp =
  match resolve ctx v with
  | Value.Pair (a, b) -> cmp (resolve ctx a) (resolve ctx b)
  | v -> error "expected a pair, got %a" Value.pp_brief v

let as_set ctx v =
  match resolve ctx v with
  | Value.Set xs | Value.Bag xs | Value.List xs -> xs
  | v -> error "expected a set, got %a" Value.pp_brief v

let as_int ctx v =
  match resolve ctx v with
  | Value.Int i -> i
  | v -> error "expected an int, got %a" Value.pp_brief v

let attribute name ctx v =
  match resolve ctx v with
  | Value.Obj _ as o -> (
    match Value.field name o with
    | Some x -> x
    | None -> error "object %a has no attribute %s" Value.pp_brief o name)
  | v -> error "attribute %s applied to non-object %a" name Value.pp_brief v

let bool_attribute name ctx v =
  match resolve ctx v with
  | Value.Obj _ as o -> (
    match Value.field name o with
    | Some (Value.Bool b) -> b
    | Some x -> error "predicate attribute %s is not boolean: %a" name Value.pp_brief x
    | None -> error "object %a has no attribute %s" Value.pp_brief o name)
  | v -> error "predicate %s applied to non-object %a" name Value.pp_brief v

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
(* Leaves.  One compiler turns per-element functions and predicates
   into closures, wherever the element lives.  Its input is a leaf: a
   value fixed at compile time that says where the element's value is,
   as a function of an index ['i] — a row index for a columnar scan, the
   element itself for the row path.  A node whose operands are typed
   leaves compiles to a typed leaf, reading columns with no boxing; any
   other node boxes its input and runs the row semantics on it, so a
   kernel falls back to boxed code one leaf at a time.  No closure
   inspects a leaf at run time: the layout is decided here. *)

type _ leaf =
  | Int : ('i -> int) -> 'i leaf
  | Str : ('i -> string) -> 'i leaf
  | Bool : ('i -> bool) -> 'i leaf
  | Self : Value.t leaf  (** the row path's element: the index itself *)
  | Here : C.relation -> int leaf
      (** the row of a scan: the index is the row *)
  | Row : C.relation * ('i -> int) -> 'i leaf
      (** a row of an extent or element relation, at a computed index *)
  | Val : ('i -> Value.t) -> 'i leaf
      (** a pure boxed read: a set or boxed column, a constant *)
  | Pair : 'i leaf * 'i leaf -> 'i leaf
  | Env : (rctx -> Value.t) -> 'i leaf
      (** a value the run fixes before any row (a loop environment):
          reading it needs the context, but it cannot fail *)
  | Box : (rctx -> 'i -> Value.t) -> 'i leaf
      (** a boxed value that needs the run context and may fail *)

(* Only pure leaves enter a scan's selection or a morsel. *)
let rec pure : type i. i leaf -> bool = function
  | Env _ | Box _ -> false
  | Pair (a, b) -> pure a && pure b
  | Int _ | Str _ | Bool _ | Self | Here _ | Row _ | Val _ -> true

(* A cheap leaf costs and risks nothing when read twice or not at all;
   a [Box] may do work or fail, so a node that would drop it or read it
   twice boxes it once and runs the row closure instead. *)
let rec cheap : type i. i leaf -> bool = function
  | Box _ -> false
  | Pair (a, b) -> cheap a && cheap b
  | _ -> true

(* The value a pure leaf denotes: exactly what the row path holds at that
   point (field values are not resolved). *)
let rec read : type i. i leaf -> i -> Value.t = function
  | Int g -> fun i -> Value.Int (g i)
  | Str g -> fun i -> Value.Str (g i)
  | Bool g -> fun i -> Value.Bool (g i)
  | Self -> fun v -> v
  | Here rel -> fun i -> rel.C.rows.(i)
  | Row (rel, ix) -> fun i -> rel.C.rows.(ix i)
  | Val g -> g
  | Pair (a, b) ->
    let ea = read a and eb = read b in
    fun i -> Value.Pair (ea i, eb i)
  | Env _ | Box _ -> invalid_arg "Exec.read: the leaf needs the run context"

let rec box : type i. i leaf -> rctx -> i -> Value.t = function
  | Box b -> b
  | Self -> fun _ v -> v
  | Env r -> fun ctx _ -> r ctx
  | Pair (a, b) when not (pure a && pure b) ->
    let ba = box a and bb = box b in
    fun ctx i -> Value.Pair (ba ctx i, bb ctx i)
  | l ->
    let e = read l in
    fun _ i -> e i

(* A constant as [Kf] yields it (resolved), and as [Cf]/[Cp] pair it
   (raw). *)
let raw : type i. Value.t -> i leaf = function
  | Value.Int k -> Int (fun _ -> k)
  | Value.Str s -> Str (fun _ -> s)
  | Value.Bool b -> Bool (fun _ -> b)
  | c -> Val (fun _ -> c)

let const : type i. Value.t -> i leaf = function
  | (Value.Named _ | Value.Hole _) as c -> Box (fun ctx _ -> resolve ctx c)
  | c -> raw c

(* Whether a leaf holds a scan's row: every columnar lowering's does, the
   row path's never. *)
let rec over_scan : type i. i leaf -> bool = function
  | Here _ -> true
  | Pair (a, b) -> over_scan a || over_scan b
  | _ -> false

let rowish : type i. i leaf -> (C.relation * (i -> int)) option = function
  | Here rel -> Some (rel, fun i -> i)
  | Row (rel, ix) -> Some (rel, ix)
  | _ -> None

(* A leaf read at another index. *)
let rec reindex : type i j. i leaf -> (j -> i) -> j leaf =
 fun l g ->
  match l with
  | Int f -> Int (fun j -> f (g j))
  | Str f -> Str (fun j -> f (g j))
  | Bool f -> Bool (fun j -> f (g j))
  | Self -> Val g
  | Here rel -> Row (rel, g)
  | Row (rel, ix) -> Row (rel, fun j -> ix (g j))
  | Val f -> Val (fun j -> f (g j))
  | Pair (a, b) -> Pair (reindex a g, reindex b g)
  | Env r -> Env r
  | Box b -> Box (fun ctx j -> b ctx (g j))

(* A compiled predicate: pure when every leaf it read was, so it may
   select a scan's rows. *)
type 'i test = Pure of ('i -> bool) | Test of (rctx -> 'i -> bool)

let lift : type i. i test -> rctx -> i -> bool = function
  | Pure k -> fun _ i -> k i
  | Test t -> t

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
   semantics. *)
let ccmp : type i. [ `Eq | `Leq | `Gt ] -> i leaf -> i leaf -> (i -> bool) option
    =
 fun cmp a b ->
  match (a, b) with
  | Int x, Int y ->
    Some
      (match cmp with
      | `Eq -> fun i -> x i = y i
      | `Leq -> fun i -> x i <= y i
      | `Gt -> fun i -> x i > y i)
  | Str x, Str y ->
    Some
      (match cmp with
      | `Eq -> fun i -> String.equal (x i) (y i)
      | `Leq -> fun i -> String.compare (x i) (y i) <= 0
      | `Gt -> fun i -> String.compare (x i) (y i) > 0)
  | Bool x, Bool y ->
    Some
      (match cmp with
      | `Eq -> fun i -> x i = y i
      | `Leq -> fun i -> Stdlib.compare (x i) (y i) <= 0
      | `Gt -> fun i -> Stdlib.compare (x i) (y i) > 0)
  | _ -> (
    match (rowish a, rowish b) with
    | Some (r1, ix1), Some (r2, ix2) -> (
      let t1, c1, total1 = row_ident r1 ix1 and t2, c2, total2 = row_ident r2 ix2 in
      if not (String.equal t1 t2) then None
      else
        match cmp with
        | `Eq when total1 || total2 -> Some (fun i -> c1 i = c2 i)
        | `Leq when total1 && total2 -> Some (fun i -> c1 i <= c2 i)
        | `Gt when total1 && total2 -> Some (fun i -> c1 i > c2 i)
        | _ -> None)
    | _ -> None)

(* [g] as its last attribute step and the path before it. *)
let last_prim (g : Term.func) =
  match g with
  | Term.Prim a -> Some (a, Term.Id)
  | Term.Compose (Term.Prim a, rest) -> Some (a, rest)
  | _ -> None

(* An attribute of a row leaf, through its typed column.  Exact refs
   only: the embedded value IS the target row, so reading on through its
   columns is sound.  [None] (a missing column, an inexact ref) leaves
   the read to the boxed row semantics. *)
let column : type i. C.db option -> string -> i leaf -> i leaf option =
 fun coldb a l ->
  match rowish l with
  | None -> None
  | Some (rel, ix) -> (
    match C.column rel a with
    | Some (C.Column.Ints arr) -> Some (Int (fun i -> arr.(ix i)))
    | Some (C.Column.Strs arr) -> Some (Str (fun i -> arr.(ix i)))
    | Some (C.Column.Bools arr) -> Some (Bool (fun i -> arr.(ix i)))
    | Some (C.Column.Refs { target; idx; exact = true; _ }) ->
      Option.map
        (fun t -> Row (t, fun i -> idx.(ix i)))
        (Option.bind coldb (fun cd -> C.relation cd target))
    | Some (C.Column.Sets { sets = arr; _ }) | Some (C.Column.Boxed arr) ->
      Some (Val (fun i -> arr.(ix i)))
    | Some (C.Column.Refs _) | None -> None)

(* ------------------------------------------------------------------ *)
(* The scalar compiler.  [func] and [pred] mirror [Eval.func]/[Eval.pred]
   case by case over a leaf, so a hot loop never touches the term again.
   The row path starts them at [row], the element itself; the columnar
   lowerings at a scan's row, at ⟨environment, row⟩ for an [iter], and
   at ⟨parent row, element row⟩ inside a nested select.  [func] also
   hoists loop-invariant subterms: the closure memoizes its result on the
   database it ran against, so a closed subquery used as a filter operand
   costs one evaluation per run instead of one per element.

   Every collection operator's row semantics is written once, as a kernel
   over element sources that charges the work counters itself.  [func]
   runs a kernel over an element's materialized set; the pipeline
   lowering below runs the same kernel over a streamed collection, and so
   does every columnar refusal. *)

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

(* [coldb] binds column reads; [typed] counts the nested selects compiled
   typed on an element relation, for the lowering that keeps the result. *)
type cenv = { coldb : C.db option; mutable typed : int }

let row = Self

(* Stands in for a nested select's element while only its parent may be
   read: a context read, which no pure predicate can consult. *)
let unread : rctx -> Value.t =
 fun _ -> invalid_arg "Exec: a parent-only predicate read its element"

let rec func : type i. cenv -> Term.func -> i leaf -> i leaf =
 fun env f l ->
  match f with
  | Term.Kf c -> if cheap l then const c else via_row env f l
  | _ when func_invariant f ->
    if not (cheap l) then via_row env f l
    else (
      match func_node env f l with
      | r when pure r -> r
      | r ->
        let r = box r and memo = ref None in
        Box
          (fun ctx i ->
            match !memo with
            | Some (db, v) when db == ctx.db -> v
            | _ ->
              let v = r ctx i in
              memo := Some (ctx.db, v);
              v))
  | _ -> func_node env f l

and func_node : type i. cenv -> Term.func -> i leaf -> i leaf =
 fun env f l ->
  let boxed : (rctx -> Value.t -> Value.t) -> i leaf =
   fun op ->
    match l with
    | Self -> Box op
    | l ->
      let b = box l in
      Box (fun ctx i -> op ctx (b ctx i))
  in
  (* A unary kernel over the element's set, and a binary one over the
     element's pair of sets (table sized from the right operand).  Kernels
     are applied in full: a partial application would allocate per call. *)
  let unary k =
    boxed (fun ctx v ->
        let acc = ref [] in
        k ctx (of_list (as_set ctx v)) (fun x -> acc := x :: !acc);
        Value.set !acc)
  in
  let binary k =
    boxed (fun ctx v ->
        let a, b = as_pair ctx v in
        let xs = as_set ctx a and ys = as_set ctx b in
        let acc = ref [] in
        k ctx ~size:((2 * List.length ys) + 1) (of_list xs) (of_list ys)
          (fun x -> acc := x :: !acc);
        Value.set !acc)
  in
  match f with
  | Term.Id -> (
    match l with Self | Val _ | Env _ | Box _ -> boxed resolve | l -> l)
  | Term.Pi1 -> (
    match l with
    | Pair (a, b) when cheap b -> a
    | _ -> boxed (fun ctx v -> fst (as_pair ctx v)))
  | Term.Pi2 -> (
    match l with
    | Pair (a, b) when cheap a -> b
    | _ -> boxed (fun ctx v -> snd (as_pair ctx v)))
  | Term.Prim name -> (
    match column env.coldb name l with
    | Some c -> c
    | None -> boxed (attribute name))
  | Term.Compose ((Term.Iter (p, h) as it), (Term.Pairf (g, x) as pf)) -> (
    match if g = Term.Id then nested env p h x l else None with
    | Some n -> n
    | None when p = Term.Kp true && h = Term.Pi2 ->
      (* The translator threads the environment through every nested
         query as [iter(true, π2) ∘ ⟨g, X⟩] even when the body ignores
         it; the loop only repackages X.  Evaluate both legs (so errors
         surface exactly as before) but skip the pair and per-element
         pair/closure work: the result is X's elements as a set. *)
      if not (cheap l) then via_row env f l
      else
        let g' = box (func env g l) and x' = box (func env x l) in
        Box
          (fun ctx i ->
            ignore (g' ctx i);
            let ys = as_set ctx (x' ctx i) in
            ctx.c.tuples <- ctx.c.tuples + List.length ys;
            Value.set ys)
    | None -> func env it (func env pf l))
  | Term.Compose (a, b) -> func env a (func env b l)
  | Term.Pairf (a, b) ->
    if cheap l then Pair (func env a l, func env b l) else via_row env f l
  | Term.Times (a, b) -> (
    match l with
    | Pair (x, y) when cheap x && cheap y -> Pair (func env a x, func env b y)
    | _ ->
      let a' = row_func env a and b' = row_func env b in
      boxed (fun ctx v ->
          let x, y = as_pair ctx v in
          Value.Pair (a' ctx x, b' ctx y)))
  | Term.Kf c -> const c
  | Term.Cf (a, c) -> func env a (Pair (raw c, l))
  | Term.Con (p, a, b) ->
    if not (cheap l) then via_row env f l
    else
      let p' = lift (pred env p l)
      and a' = box (func env a l)
      and b' = box (func env b l) in
      Box (fun ctx i -> if p' ctx i then a' ctx i else b' ctx i)
  | Term.Arith op ->
    let op = match op with Term.Add -> ( + ) | Term.Sub -> ( - ) | Term.Mul -> ( * ) in
    boxed (fun ctx v ->
        let a, b = as_pair ctx v in
        Value.Int (op (as_int ctx a) (as_int ctx b)))
  | Term.Agg op ->
    (* the interpreter aggregates the element's set as it stands *)
    let k = k_agg ~canonical:true op in
    boxed (fun ctx v -> k ctx (of_list (as_set ctx v)))
  | Term.Setop op -> binary (k_setop op)
  | Term.Sng -> boxed (fun ctx v -> Value.set [ resolve ctx v ])
  | Term.Flat -> unary k_flat
  | Term.Iterate (p, f) -> unary (k_iterate env p f)
  | Term.Iter (p, f) ->
    let k = k_iter env p f in
    boxed (fun ctx v ->
        let e, set = as_pair ctx v in
        let acc = ref [] in
        k ctx e (of_list (as_set ctx set)) (fun x -> acc := x :: !acc);
        Value.set !acc)
  | Term.Join (p, f) -> binary (k_join env p f)
  | Term.Nest (f, g) -> binary (k_nest env f g)
  | Term.Unnest (f, g) -> unary (k_unnest env f g)
  | Term.Fhole h -> unsupported "pattern hole ?%s" h

and pred : type i. cenv -> Term.pred -> i leaf -> i test =
 fun env p l ->
  let tested : (rctx -> Value.t -> bool) -> i test =
   fun op ->
    match l with
    | Self -> Test op
    | l ->
      let b = box l in
      Test (fun ctx i -> op ctx (b ctx i))
  in
  match p with
  | (Term.Kp _ | Term.Andp _ | Term.Orp _) when not (cheap l) ->
    via_row_pred env p l
  | Term.Kp b -> Pure (fun _ -> b)
  | Term.Andp (p, q) -> (
    match (pred env p l, pred env q l) with
    | Pure a, Pure b -> Pure (fun i -> a i && b i)
    | a, b ->
      let a = lift a and b = lift b in
      Test (fun ctx i -> a ctx i && b ctx i))
  | Term.Orp (p, q) -> (
    match (pred env p l, pred env q l) with
    | Pure a, Pure b -> Pure (fun i -> a i || b i)
    | a, b ->
      let a = lift a and b = lift b in
      Test (fun ctx i -> a ctx i || b ctx i))
  | Term.Inv p -> (
    match pred env p l with
    | Pure a -> Pure (fun i -> not (a i))
    | Test a -> Test (fun ctx i -> not (a ctx i)))
  | Term.Primp name -> (
    match Option.map (fun (rel, ix) -> (C.column rel name, ix)) (rowish l) with
    | Some (Some (C.Column.Bools arr), ix) -> Pure (fun i -> arr.(ix i))
    | _ -> tested (bool_attribute name))
  | (Term.Eq | Term.Leq | Term.Gt) as cmp -> (
    let cmp, boxed =
      match cmp with
      | Term.Eq -> (`Eq, Value.equal)
      | Term.Leq -> (`Leq, fun a b -> Value.compare a b <= 0)
      | _ -> (`Gt, value_gt)
    in
    match l with
    | Pair (a, b) -> (
      match ccmp cmp a b with
      | Some k -> Pure k
      | None -> tested (fun ctx v -> compare_legs ctx v boxed))
    | _ -> tested (fun ctx v -> compare_legs ctx v boxed))
  | Term.In ->
    (* Membership hashes the right operand instead of scanning it per
       probe.  The member table is memoized on the operand's physical
       identity, so a loop-invariant right side — the common shape,
       [x in Q] with [Q] closed over the loop, which [func]'s hoisting
       pins to one physical value per run — is hashed once and probed in
       O(1); the interpreter's [List.exists] pays O(|Q|) per element.
       Small or per-element sets keep the linear scan, where building a
       table would cost more than it saves. *)
    let memo = ref None in
    tested (fun ctx v ->
        let a, b = as_pair ctx v in
        let a = resolve ctx a in
        let ys = as_set ctx b in
        if List.compare_length_with ys 16 <= 0 then List.exists (Value.equal a) ys
        else begin
          let t =
            match !memo with
            | Some (prev, t) when prev == ys -> t
            | _ ->
              let t = VH.create ((2 * List.length ys) + 1) in
              List.iter (fun y -> VH.replace t y ()) ys;
              ctx.c.builds <- ctx.c.builds + List.length ys;
              memo := Some (ys, t);
              t
          in
          ctx.c.probes <- ctx.c.probes + 1;
          VH.mem t a
        end)
  | Term.Conv q -> (
    match l with
    | Pair (a, b) when cheap a && cheap b -> pred env q (Pair (b, a))
    | _ ->
      let q' = row_pred env q in
      tested (fun ctx v ->
          let a, b = as_pair ctx v in
          q' ctx (Value.Pair (b, a))))
  | Term.Oplus (q, f) -> pred env q (func env f l)
  | Term.Cp (q, c) -> pred env q (Pair (raw c, l))
  | Term.Phole h -> unsupported "pattern hole ?%s" h

(* A node that would drop or re-read a [Box] leaf boxes it once and runs
   its row closure on the value. *)
and via_row : type i. cenv -> Term.func -> i leaf -> i leaf =
 fun env f l ->
  let b = box l and r = row_func env f in
  Box (fun ctx i -> r ctx (b ctx i))

and via_row_pred : type i. cenv -> Term.pred -> i leaf -> i test =
 fun env p l ->
  let b = box l and r = row_pred env p in
  Test (fun ctx i -> r ctx (b ctx i))

and row_func env f : rctx -> Value.t -> Value.t = box (func env f row)
and row_pred env p : rctx -> Value.t -> bool = lift (pred env p row)

(* A nested select over a columnar scan's rows.  The translator writes
   [select m from m in e.a where p] as [iter(p, h) ∘ ⟨id, a⟩]: a loop
   over row [i]'s set, each element [y] meeting [p] and [h] as
   [Pair (row, y)].

   A [p] that reads only the parent row keeps or drops the whole set as
   it stands (with [h = π2]).  Otherwise, when [a] is a [Sets] column of
   the scan's own row, the loop runs over row [i]'s range of its element
   relation ({!C.elements}), whose row [e] is the embedded element
   itself, and [p] and [h] compile at ⟨parent row, element row⟩: π1
   reads the parent's typed columns, π2 the element's own, so a stale
   copy reads as the copy it is.  Any other set runs the row [iter]
   kernel. *)
and nested : type i.
    cenv -> Term.pred -> Term.func -> Term.func -> i leaf -> i leaf option =
 fun env p h a l ->
  if not (cheap l && over_scan l) then None
  else
    let parent_only =
      if h <> Term.Pi2 then None
      else
        match pred { env with typed = 0 } p (Pair (l, Env unread)) with
        | Pure keep -> Some keep
        | Test _ -> None
    in
    match (parent_only, last_prim a, env.coldb) with
    | Some keep, _, _ ->
      let set_of = box (func env a l) in
      Some
        (Box
           (fun ctx i ->
             let s = resolve ctx (set_of ctx i) in
             let ys = as_set ctx s in
             match s with
             | Value.Set _ when keep i -> s
             | _ -> Value.set (if keep i then ys else [])))
    | None, Some (attr, rest), Some coldb -> (
      match func env rest l with
      | Here rel -> (
          match (C.column rel attr, C.elements coldb rel attr) with
          | ( Some (C.Column.Sets { off; _ }),
              Some ({ C.of_set = Some { C.owner; _ }; _ } as erel) ) ->
            let leaf = Pair (reindex l (fun e -> owner.(e)), Here erel) in
            let test = pred env p leaf and head = func env h leaf in
            (match test with
            | Pure _ when pure head -> env.typed <- env.typed + 1
            | _ -> ());
            let test = lift test and head = box head in
            (* row [i]'s elements [e] to [stop - 1], in source order, with
               no per-row accumulator or closure *)
            let[@tail_mod_cons] rec kept ctx e stop =
              if e = stop then []
              else begin
                ctx.c.tuples <- ctx.c.tuples + 1;
                if test ctx e then
                  let x = head ctx e in
                  x :: kept ctx (e + 1) stop
                else kept ctx (e + 1) stop
              end
            in
            (* with [h = π2] the kept elements of a canonical set stay in
               order, so [canonical_set] skips the sort *)
            Some (Box (fun ctx i -> canonical_set (kept ctx off.(i) off.(i + 1))))
          | _ -> None)
      | _ -> None)
    | None, _, _ -> None

(* --- the row kernels --- *)

and k_flat ctx (src : src) emit =
  src (fun s ->
      ctx.c.tuples <- ctx.c.tuples + 1;
      List.iter emit (as_set ctx s))

(* [iterate(p, f)] with [p] and [f] compiled at the leaf [at] of the
   element (the element itself by default). *)
and k_iterate env ?(at = row) p f : rctx -> src -> (Value.t -> unit) -> unit =
  let p' = lift (pred env p at) and f' = box (func env f at) in
  fun ctx src emit ->
    src (fun x ->
        ctx.c.tuples <- ctx.c.tuples + 1;
        if p' ctx x then emit (f' ctx x))

(* [iter] over the pairs [Pair (e, y)] for the environment [e]. *)
and k_iter env p f : rctx -> Value.t -> src -> (Value.t -> unit) -> unit =
  let p' = row_pred env p and f' = row_func env f in
  fun ctx e src emit ->
    src (fun y ->
        ctx.c.tuples <- ctx.c.tuples + 1;
        let pair = Value.Pair (e, y) in
        if p' ctx pair then emit (f' ctx pair))

and k_unnest env f g : rctx -> src -> (Value.t -> unit) -> unit =
  let fk = row_func env f and fg = row_func env g in
  fun ctx src emit ->
    src (fun x ->
        ctx.c.tuples <- ctx.c.tuples + 1;
        let key = fk ctx x in
        List.iter (fun y -> emit (Value.Pair (key, y))) (as_set ctx (fg ctx x)))

(* The step every join shares once a pair matched its index: apply the
   residual, count the tuple, emit the projection. *)
and join_emit env residual f :
    rctx -> (Value.t -> unit) -> Value.t -> Value.t -> unit =
  let f' = row_func env f in
  match Option.map (row_pred env) residual with
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
and k_join env p f : rctx -> size:int -> src -> src -> (Value.t -> unit) -> unit =
  match Eval.hash_joinable p with
  | Some (kind, g1, g2, residual) ->
    let g1' = row_func env g1
    and g2' = row_func env g2
    and step = join_emit env residual f in
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
    let p' = row_pred env p and f' = row_func env f in
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
and k_nest env f g : rctx -> size:int -> src -> src -> (Value.t -> unit) -> unit =
  let f' = row_func env f and g' = row_func env g in
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
        emit (Value.Pair (y, Value.set group)))

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

(* Every interpreter intermediate is a set, so Count/Sum see deduplicated
   inputs; a streamed source may repeat elements, so those two get a hash
   dedup barrier — unless [canonical] says the source is the
   materialized set the interpreter would aggregate.  Max/Min are
   multiplicity-indifferent. *)
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
      if canonical then
        src (fun x ->
            ctx.c.tuples <- ctx.c.tuples + 1;
            n := add ctx !n x)
      else begin
        let seen = VH.create 256 in
        src (fun x ->
            ctx.c.tuples <- ctx.c.tuples + 1;
            (* replace + length delta: one hash per element, not two *)
            let before = VH.length seen in
            VH.replace seen x ();
            if VH.length seen <> before then n := add ctx !n x)
      end;
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

(* ------------------------------------------------------------------ *)
(* Columnar kernels.  Under [layout = Columnar] the compiler binds extent
   scans to a {!Colstore} relation: a [vec] is a base relation plus a
   composed pure selection predicate (chained filters fuse into one
   conjunction tested in a single pass) and a per-run prologue that forces
   whatever the row path would have forced (environment values), so error
   behaviour is unchanged.  Filters and maps compile at the scan's row
   leaf; a predicate that is not pure — it needs the run context, such as
   membership in a hoisted subquery or equality on boxed values — keeps
   the operator on its row kernel, counted as a degrade. *)

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
   and a selection preserves it, so the result is already a canonical
   set — no sort needed. *)
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

(* [g] on the rows of [rel], read through the scalar compiler's row
   leaves. *)
let ref_at coldb g rel =
  rowish (func { coldb = Some coldb; typed = 0 } g (Here rel))

let ckey_of coldb (g : Term.func) (rel : C.relation) : ckey option =
  match func { coldb = Some coldb; typed = 0 } g (Here rel) with
  | Int get -> Some (KInt get)
  | Str get -> Some (KStr get)
  | (Here _ | Row _) as r ->
    let rel, ix = Option.get (rowish r) in
    let t, code, total = row_ident rel ix in
    Some (KRow (t, code, total))
  | Bool _ | Val _ | Pair _ | Env _ -> None
  | Box _ -> (
    (* Allow one final ref step that is total-or-not and inexact: identity
       joins only need the (cls, oid) index, not field equality. *)
    match last_prim g with
    | Some (a, rest) -> (
      match ref_at coldb rest rel with
      | Some (r, ix) -> (
        match C.column r a with
        | Some (C.Column.Refs { target; idx; total; _ }) ->
          Some (KRow (target, (fun i -> idx.(ix i)), total))
        | _ -> None)
      | None -> None)
    | None -> None)

(* Row [j]'s items on a group-join build side: [One at] holds the one
   item [at j]; [Slice] holds [idx.(e)] for the positions [e] from
   [off.(ix j)] to [off.(ix j + 1) - 1]. *)
type span =
  | One of (int -> int)
  | Slice of { ix : int -> int; off : int array; idx : int array }

(* The target rows a group-join build row's key names: the one row an
   equality key's ref names, or the row of every element of a membership
   key's set ([Sets]).  Membership compares objects by (cls, oid), which
   is exactly what a row index encodes.  [-1] codes are skipped: a
   guaranteed miss when the probe side is total, which the caller checks
   against the returned flag. *)
let build_codes coldb kind (g : Term.func) (rel : C.relation) :
    (string * span * bool) option =
  match kind with
  | `Eq -> (
    match ckey_of coldb g rel with
    | Some (KRow (t, ix, total)) -> Some (t, One ix, total)
    | _ -> None)
  | `In -> (
    match last_prim g with
    | None -> None
    | Some (a, rest) -> (
      match ref_at coldb rest rel with
      | Some (r, ix) -> (
        match C.column r a with
        | Some (C.Column.Sets { target; off; idx; total; _ }) ->
          Some (target, Slice { ix; off; idx }, total)
        | _ -> None)
      | None -> None))

(* How the members of a group-join payload become integer codes.
   [Typed]: row [j]'s members are [span]'s items, as codes [bits] wide
   whose bits above [shift] are a key below [keys] that orders members
   as [Value.compare] does, equal keys for equal members; the low [shift]
   bits hold the position where [member] needs it to box the code.  A
   [One] item is the code; a [Slice] item [idx.(e)] is the key, with the
   position [e] below it.
   [Boxed]: the payload runs as the row path runs it ([parallel] when it
   may run on pool domains), and a member's code numbers it in the order
   it was produced. *)
type members =
  | Typed of {
      span : span;
      keys : int;
      shift : int;
      bits : int;
      member : int -> Value.t;
    }
  | Boxed of { parallel : bool; pay : rctx -> int -> Value.t list }

(* The bits that hold every int below [n]. *)
let bits_for n =
  let rec go k = if n <= 1 lsl k then k else go (k + 1) in
  go 0

(* A build pair packs its target row above a member code [code_bits]
   wide; boxed codes number the members, below 2^31. *)
let code_bits = function Typed t -> t.bits | Boxed _ -> 31

(* The typed members of a group-join payload [g] over the build relation
   [rel], for [groups] target rows: under [sng ∘ h], [h]'s value when [h]
   ends in an int, string or total ref column; otherwise the
   elements of [g]'s total [Sets] column.  Ints and strings key on their
   rank ({!C.ranks}) and box from it.  A ref or an element keys on its
   target row (one target row, so one (cls, oid)), and boxes the value
   the row path holds at its position: the embedded copy, not the target
   row.  [None] leaves the payload boxed: no typed column, [-1] codes,
   which no target row orders, or codes too wide to pack with a target
   row in one int. *)
let typed_members coldb ~groups (g : Term.func) (rel : C.relation) :
    members option =
  let sng, h =
    match g with Term.Compose (Term.Sng, h) -> (true, h) | h -> (false, h)
  in
  let column =
    Option.bind (last_prim h) (fun (a, rest) ->
        Option.map (fun (r, ix) -> (a, r, ix)) (ref_at coldb rest rel))
  in
  let typed span keys shift member =
    let bits = shift + bits_for keys in
    if bits_for groups + bits > 62 then None
    else Some (Typed { span; keys; shift; bits; member })
  in
  match column with
  | None -> None
  | Some (a, r, ix) -> (
    (* keys are rows of [target]; the position rides below them *)
    let objects target positions span member_at =
      let shift = bits_for positions in
      let mask = (1 lsl shift) - 1 in
      Option.bind (C.relation coldb target) (fun t ->
          typed (span shift) (Array.length t.C.rows) shift (fun c ->
              member_at (c land mask)))
    in
    match (sng, C.column r a) with
    | true, Some (C.Column.Ints _ | C.Column.Strs _) ->
      Option.bind (C.ranks coldb r a) (fun { C.rank; values } ->
          typed
            (One (fun j -> rank.(ix j)))
            (Array.length values) 0
            (fun c -> values.(c)))
    | true, Some (C.Column.Refs { target; idx; total = true; _ }) ->
      objects target (Array.length idx)
        (fun shift ->
          One
            (fun j ->
              let e = ix j in
              (idx.(e) lsl shift) lor e))
        (fun e -> Option.get (Value.field a r.C.rows.(e)))
    | false, Some (C.Column.Sets { target; off; idx; total = true; _ }) ->
      Option.bind (C.elements coldb r a) (fun erel ->
          objects target (Array.length idx)
            (fun _ -> Slice { ix; off; idx })
            (fun e -> erel.C.rows.(e)))
    | _ -> None)

(* One morsel of a group-join build: its (target row, member code) pairs
   in row order, each packed in one int ({!code_bits}); the boxed members
   it produced, newest first; and its counts. *)
type gchunk = {
  pairs : int array;  (** the first [len] hold the pairs *)
  len : int;
  boxed : Value.t list;
  nboxed : int;
  built : int;
  flowed : int;
}

let group_chunk members (targets : span) keep bctx lo hi =
  let cbits = code_bits members and built = ref 0 and flowed = ref 0 in
  (* [f j k] for every target row [k] of every selected row [j] *)
  let each_target f =
    for j = lo to hi - 1 do
      if keep j then
        match targets with
        | One at ->
          let k = at j in
          if k >= 0 then f j k
        | Slice { ix; off; idx } ->
          let r = ix j in
          for e = off.(r) to off.(r + 1) - 1 do
            let k = idx.(e) in
            if k >= 0 then f j k
          done
    done
  in
  let chunk pairs len boxed nboxed =
    for j = lo to hi - 1 do
      if keep j then incr built
    done;
    { pairs; len; boxed; nboxed; built = !built; flowed = !flowed }
  in
  match members with
  | Typed { span; shift; _ } ->
    (* count the pairs, then write them into an array of that size *)
    each_target (fun j _ ->
        match span with
        | One _ -> incr flowed
        | Slice { ix; off; _ } ->
          let r = ix j in
          flowed := !flowed + off.(r + 1) - off.(r));
    let pairs = Array.make !flowed 0 and len = ref 0 in
    each_target (fun j k ->
        let top = k lsl cbits in
        match span with
        | One at ->
          pairs.(!len) <- top lor at j;
          incr len
        | Slice { ix; off; idx } ->
          let r = ix j in
          for e = off.(r) to off.(r + 1) - 1 do
            pairs.(!len) <- top lor (idx.(e) lsl shift) lor e;
            incr len
          done);
    chunk pairs !len [] 0
  | Boxed m ->
    let pairs = ref (Array.make (hi - lo + 16) 0) and len = ref 0 in
    let push p =
      if !len = Array.length !pairs then begin
        let a = Array.make (2 * !len) 0 in
        Array.blit !pairs 0 a 0 !len;
        pairs := a
      end;
      !pairs.(!len) <- p;
      incr len
    in
    let boxed = ref [] and nboxed = ref 0 in
    (* the payload runs once per row, at its first target *)
    let last = ref (-1) and first = ref 0 and n = ref 0 in
    each_target (fun j k ->
        if !last <> j then begin
          let l = m.pay bctx j in
          last := j;
          first := !nboxed;
          n := List.length l;
          boxed := List.rev_append l !boxed;
          nboxed := !nboxed + !n
        end;
        flowed := !flowed + !n;
        for c = !first to !first + !n - 1 do
          push ((k lsl cbits) lor c)
        done);
    chunk !pairs !len !boxed !nboxed

(* The groups, CSR over the [nd] target rows: row [k]'s member codes are
   [codes.(off.(k))] to [codes.(off.(k + 1) - 1)].  Boxed members are
   numbered across morsels in morsel order, and each group holds them in
   morsel and row order.  Typed pairs are first ordered by member key, so
   each group comes out sorted: both passes are stable counting sorts,
   and equal members keep morsel and row order. *)
let group_csr members nd chunks =
  let cbits = code_bits members in
  let cmask = (1 lsl cbits) - 1 in
  let m = List.fold_left (fun acc ch -> acc + ch.len) 0 chunks in
  (* [off.(k)] counts group [k]'s pairs, then, summed, ends the group *)
  let off = Array.make (nd + 1) 0 in
  let count p =
    let k = p lsr cbits in
    off.(k) <- off.(k) + 1
  in
  let each f =
    List.iter
      (fun ch ->
        for x = 0 to ch.len - 1 do
          f ch.pairs.(x)
        done)
      chunks
  in
  let sorted = Array.make m 0 in
  (match members with
  | Boxed _ ->
    let i = ref 0 and base = ref 0 in
    List.iter
      (fun ch ->
        for x = 0 to ch.len - 1 do
          let p = ch.pairs.(x) in
          count p;
          sorted.(!i) <- p + !base;
          incr i
        done;
        base := !base + ch.nboxed)
      chunks
  | Typed t ->
    let key p = (p land cmask) asr t.shift in
    let next = Array.make (t.keys + 1) 0 in
    each (fun p ->
        let b = key p + 1 in
        next.(b) <- next.(b) + 1;
        count p);
    for b = 1 to t.keys do
      next.(b) <- next.(b) + next.(b - 1)
    done;
    each (fun p ->
        let b = key p in
        sorted.(next.(b)) <- p;
        next.(b) <- next.(b) + 1));
  for k = 1 to nd do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  (* placed from the back, so each group keeps [sorted]'s order and
     [off.(k)] comes down to the group's start; one morsel's pair array
     is free again, and long enough *)
  let codes = match chunks with [ ch ] -> ch.pairs | _ -> Array.make m 0 in
  for x = m - 1 downto 0 do
    let p = sorted.(x) in
    let k = p lsr cbits in
    off.(k) <- off.(k) - 1;
    codes.(off.(k)) <- p land cmask
  done;
  (off, codes)

(* Group [k] as the canonical set the row path's [Value.set] builds.
   Typed: one member per run of equal keys, the first, boxed once.
   Boxed: the members, newest first — the list the row path's bucket
   holds — through [Value.set]. *)
let group_set members boxed (off, codes) k =
  let lo = off.(k) and hi = off.(k + 1) in
  match members with
  | Typed m ->
    let acc = ref [] in
    for e = hi - 1 downto lo do
      if e = lo || codes.(e - 1) asr m.shift <> codes.(e) asr m.shift then
        acc := m.member codes.(e) :: !acc
    done;
    Value.Set !acc
  | Boxed _ ->
    let acc = ref [] in
    for e = lo to hi - 1 do
      acc := boxed.(codes.(e)) :: !acc
    done;
    Value.set !acc

(* ------------------------------------------------------------------ *)
(* Pipeline lowering.  A compiled spine value is a collection (either a
   stored whole, a streaming producer, or a columnar scan), a
   statically-known pair, or a scalar thunk; the IR description is built
   alongside. *)

type producer = rctx -> src

(* A columnar scan read through a pure leaf: a map over [Cols] and every
   map after it, composed onto [p].  [charge] is the tuples one selected
   row costs, one per map stage the leaf replaced — except that an int
   read straight off the scan has always charged its rows in the
   aggregate it feeds, so it starts at 0. *)
type pscan = { src : vec; p : int leaf; charge : int }

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
  let out = read p in
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
   canonical order, so sorted codes are sorted rows.  [None] for leaves
   without an unboxed key (boxed reads, pairs, element rows). *)
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
  | Int g -> distinct g (fun k -> Value.Int k)
  | Str g -> distinct g (fun s -> Value.Str s)
  | Bool g -> distinct g (fun b -> Value.Bool b)
  | p -> (
    match rowish p with
    | Some (rel, ix) when Option.is_none rel.C.of_set ->
      distinct ix (fun k -> rel.C.rows.(k))
    | _ -> None)

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
      Value.set !acc
    in
    match c with
    | Proj ps -> (
      match pscan_set ctx ps with Some xs -> Value.Set xs | None -> boxed ())
    | _ -> boxed ())
  | Coll (Cols v) ->
    (* selection preserves canonical row order: no sort *)
    Value.Set (vec_rows ctx v)

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

let cenv st = { coldb = st.coldb; typed = 0 }

let scalar_apply st (f : Term.func) (input : cv) : cv =
  let f' = row_func (cenv st) f in
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
    let p' = row_pred (cenv st) p in
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
    | Cols v, _ -> lower_scan_cols st ~col:(Here v.rel) ~row p f v ir
    | Proj ps, Term.Kp true -> (
      (* a map after a projected scan composes onto its leaf *)
      match func (cenv st) f ps.p with
      | q when pure q ->
        st.kernels <- st.kernels + 1;
        { shape = Coll (Proj { ps with p = q; charge = ps.charge + 1 }); ir }
      | _ -> row_stage (k_iterate (cenv st) p f) (Proj ps) ir)
    | c, _ -> row_stage (k_iterate (cenv st) p f) c ir)
  | Term.Iter (p, f) -> (
    let e_cv, b_cv = as_duo st input in
    let ir = Ir.IterEnv (p, f, e_cv.ir, b_cv.ir) in
    match as_coll b_cv with
    | Cols v ->
      (* The body sees ⟨environment, row⟩.  The environment is forced
         before any row, so its errors surface exactly as on the row
         path; a body that reads it forces it once more per run (the
         memo is keyed on the run's slot array). *)
      let memo = ref None in
      let env ctx =
        match !memo with
        | Some (run, e) when run == ctx.vals -> e
        | _ ->
          let e = force ctx e_cv in
          memo := Some (ctx.vals, e);
          e
      in
      let v = vec_add_pre v (fun ctx -> ignore (force ctx e_cv)) in
      lower_scan_cols st
        ~col:(Pair (Env env, Here v.rel))
        ~row:(Pair (Env env, row))
        p f v ir
    | c ->
      let k = k_iter (cenv st) p f in
      pipe (fun ctx emit -> k ctx (force ctx e_cv) (iter_coll ctx c) emit) ir)
  | Term.Join (p, f) -> lower_join st p f input
  | Term.Nest (f, g) ->
    let a_cv, b_cv = as_duo st input in
    row_binary (k_nest (cenv st) f g) ~size:1024 (as_coll a_cv) (as_coll b_cv)
      (Ir.HashGroup { key = f; payload = g; src = a_cv.ir; groups = b_cv.ir })
  | Term.Unnest (f, g) ->
    row_stage (k_unnest (cenv st) f g) (as_coll input)
      (Ir.UnnestStage (f, g, input.ir))
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
  | Term.Prim _ | Term.Arith _ -> scalar_apply st f input
  | Term.Fhole h -> unsupported "pattern hole ?%s" h

and lower_join st p f input =
  let a_cv, b_cv = as_duo st input in
  let ca = as_coll a_cv and cb = as_coll b_cv in
  let row ir = row_binary (k_join (cenv st) p f) ~size:1024 ca cb ir in
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
      let step = join_emit (cenv st) residual f in
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
  | Proj { src; p = Int iget; charge } ->
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
  | Term.Count | Term.Sum ->
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
    Value.Int (match op with Term.Count -> !distinct | _ -> !sum)
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

(* Filter/map over a columnar scan, [p] and [f] compiled at the scan's
   leaf [col].  A pure predicate folds into the scan's selection (chained
   filters become one conjunction, tested in a single pass at
   consumption); a pure map makes a projected scan ([Proj]), and any
   other map — pairs with boxed legs, nested selects — an emit loop over
   the selected rows.  A predicate that needs the run context runs the
   row iterate kernel over the scan instead, with [p] and [f] compiled at
   [row], the same leaf over the boxed row; that is counted as a
   degrade. *)
and lower_scan_cols st ~(col : int leaf) ~(row : Value.t leaf) (p : Term.pred)
    (f : Term.func) (v : vec) ir : cv =
  match pred (cenv st) p col with
  | Test _ ->
    degrade st (Fmt.str "filter over %s not columnar" v.rel.C.name);
    row_stage (k_iterate (cenv st) ~at:row p f) (Cols v) ir
  | Pure vp -> (
    st.kernels <- st.kernels + 1;
    let v = vec_conj v vp in
    let env = cenv st in
    match func env f col with
    | Here _ -> { shape = Coll (Cols v); ir }
    | out when pure out ->
      let charge = match out with Int _ -> 0 | _ -> 1 in
      { shape = Coll (Proj { src = v; p = out; charge }); ir }
    | out ->
      st.kernels <- st.kernels + env.typed;
      let out = box out in
      pipe
        (fun ctx emit ->
          vec_iter ctx v (fun i ->
              ctx.c.tuples <- ctx.c.tuples + 1;
              emit (out ctx i)))
        ir)

(* The fused group-join kernel: [nest(π1,π2) ∘ (unnest(π1,π2) × id) ∘
   ⟨join(p, id × g), π1⟩] over a pair of columnar scans (probe side D,
   build side E), for an equality [p] on a ref key or a membership [p]
   on a set-of-refs key ([in ⊕ (g1 × a)], the Garage Query's).  One pass
   over E records, at every target row its key names, an integer code
   for each payload member ({!typed_members}; a payload no column holds
   numbers its boxed members), and the codes go into one CSR array by
   target row.  One pass over D emits every probe row with its group,
   sorted and deduplicated on the codes and boxed once per kept member
   — no boxed hashing or sorting, save on the boxed payload.  The build
   fans out over morsels when the payload is context-read-only; chunks
   merge in morsel order, so the CSR array is the one an inline build
   fills. *)
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
            (* payload: the elements Unnest flattens out of [g e], typed
               when a column holds them.  A boxed payload that compiles
               pure only reads the context (resolve/as_set consult
               ctx.db), so it is safe to run on pool domains; otherwise
               the row closure runs on the boxed row, and may touch memo
               cells and counters, so it keeps the build sequential. *)
            let boxed h wrap =
              match func (cenv st) h (Here ve.rel) with
              | l when pure l ->
                let out = read l in
                Boxed { parallel = true; pay = (fun ctx j -> wrap ctx (out j)) }
              | _ ->
                let h' = row_func (cenv st) h in
                Boxed
                  {
                    parallel = false;
                    pay = (fun ctx j -> wrap ctx (h' ctx ve.rel.C.rows.(j)));
                  }
            in
            let members =
              match typed_members coldb ~groups:(Array.length trel.C.rows) g ve.rel with
              | Some m -> m
              | None -> (
                match g with
                | Term.Compose (Term.Sng, h) ->
                  boxed h (fun ctx x -> [ resolve ctx x ])
                | g -> boxed g as_set)
            in
            let parallel_ok =
              match members with Typed _ -> true | Boxed b -> b.parallel
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
                      this domain — the build is one inline chunk. *)
                   let bctx =
                     if parallel_ok then ctx else { ctx with pool = None }
                   in
                   let chunks =
                     morsel_fold bctx ~n:(Array.length ve.rel.C.rows)
                       (group_chunk members codes keep bctx)
                   in
                   List.iter
                     (fun ch ->
                       ctx.c.builds <- ctx.c.builds + ch.built;
                       ctx.c.tuples <- ctx.c.tuples + ch.flowed)
                     chunks;
                   let groups = group_csr members nd chunks in
                   let boxed =
                     match members with
                     | Typed _ -> [||]
                     | Boxed _ ->
                       Array.concat
                         (List.map
                            (fun ch -> Array.of_list (List.rev ch.boxed))
                            chunks)
                   in
                   vec_iter ctx vd (fun i ->
                       ctx.c.probes <- ctx.c.probes + 1;
                       let k = gd i in
                       let grp =
                         if k >= 0 && k < nd then group_set members boxed groups k
                         else Value.Set []
                       in
                       emit (Value.Pair (vd.rel.C.rows.(i), grp))))
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

let execute ?pool ~db (c : compiled) : Value.t * counters =
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
      pipes = Array.make (max 1 c.pipe_slots) None;
      vals = Array.make (max 1 c.val_slots) None;
      pool;
      c = fresh_counters ();
    }
  in
  Telemetry.span ~cat:"exec" "exec.run" @@ fun () ->
  (* A streamed root, deduplicated as it arrives.  Through a hash dedup,
     a duplicate-heavy stream sorts only its distinct elements — the
     canonical set comes out identical to the interpreter's either way.
     On a mostly distinct stream the table pays a hash per element and
     saves nothing, so the duplicate ratio is checked on geometrically
     growing prefixes (256, 512, ...): a distinct-heavy stream drops the
     table within the first few hundred elements instead of hashing a 4k
     prefix first.  Column kernels emit in row order, so the stream is
     often canonical already and [canonical_set] skips the final sort;
     otherwise it sort-uniqs the raw stream, which is exactly the
     interpreter's cost. *)
  let stream (p : producer) =
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
  in
  let v =
    match c.plan.shape with
    | Coll (Pipe p) -> stream p
    | Coll (Proj ps) -> (
      (* a typed root is deduplicated on its unboxed values *)
      match pscan_set ctx ps with
      | Some xs -> Value.Set xs
      | None -> stream (fun ctx -> pscan_iter ctx ps))
    | _ -> (* [force] canonicalises columnar terminals *) force ctx c.plan
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

(* A compiled run the compiler cannot take runs on the hashed interpreter:
   counted, and flagged with its reason. *)
let fall_back ~dedup ~db q reason =
  Atomic.incr fallbacks;
  Telemetry.count "exec.fallback";
  let v, s = run_interp ~backend:Eval.Hashed ~dedup ~db q in
  (v, { s with fell_back = true; fallback_reason = Some reason })

let run ?(backend = Compiled) ?(dedup = Eval.Eager) ?(layout = Row)
    ?(jobs = 1) ?pool ?coldb ~db (q : Term.query) : Value.t * stats =
  match (backend, dedup) with
  | Interp b, _ -> run_interp ~backend:b ~dedup ~db q
  | Compiled, Eval.Deferred ->
    fall_back ~dedup ~db q "deferred dedup runs on the interpreter only"
  | Compiled, Eval.Eager -> (
    let coldb =
      match layout with
      | Row -> None
      | Columnar -> (
        match coldb with Some _ as cd -> cd | None -> Some (C.of_db db))
    in
    let t0 = Telemetry.now () in
    match compile ?coldb q with
    | exception Unsupported reason -> fall_back ~dedup ~db q reason
    | c ->
      let t1 = Telemetry.now () in
      let jobs = if can_fan_out coldb then jobs else 1 in
      with_exec_pool ?pool ~jobs @@ fun pool ->
      let v, counters = execute ?pool ~db c in
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
   indirection, then field by field: objects with the right identity but
   the wrong copy's fields disagree. *)
let agree ~db a b =
  let ctx = Eval.ctx ~db () in
  Value.deep_equal
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
