(* Operational semantics of KOLA (Tables 1 and 2 of the paper).

   The evaluator is parameterised by:
   - a database environment resolving [Value.Named] extents;
   - a backend: [Naive] executes join/nest/unnest by the literal semantics
     equations (nested loops); [Hashed] recognises equi- and membership-join
     predicates of the form q ⊕ (g1 × g2) with q ∈ {eq, in} and executes them
     with hash indexes, and executes nest by hash grouping.  The hidden-join
     optimisation of Section 4 exists precisely to expose such join structure.
   - counters recording work done, used by the benchmarks as an
     implementation-independent cost measure;
   - an optional work budget on the weighted blend of those counters:
     evaluation stops with [Over_budget] once the blend exceeds it. *)

open Term

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type backend = Naive | Hashed

(* Duplicate-elimination discipline (the paper's Section 6 "current
   efforts": optimizations that defer duplicate elimination are expressed
   as transformations producing bags as intermediate results).  [Eager]
   canonicalises every intermediate collection as a set; [Deferred] keeps
   intermediates as bags and deduplicates only when a set is demanded at
   the end ({!finalize}). *)
type dedup = Eager | Deferred

type counters = {
  mutable func_calls : int;   (** combinator invocations *)
  mutable pred_calls : int;   (** predicate invocations *)
  mutable tuples : int;       (** set elements touched by query combinators *)
}

let fresh_counters () = { func_calls = 0; pred_calls = 0; tuples = 0 }

(* The one definition of the weighted blend the optimizer ranks plans by.
   Each term is non-decreasing in its counter, and float addition and
   multiplication by a positive constant are monotone under rounding, so
   the blend of a run's counters at any point is <= the blend at its end,
   bit for bit.  That is what makes a budget cut sound. *)
let weighted ~tuples ~func_calls ~pred_calls =
  float_of_int tuples +. (0.1 *. float_of_int func_calls)
  +. (0.1 *. float_of_int pred_calls)

let weighted_of c =
  weighted ~tuples:c.tuples ~func_calls:c.func_calls ~pred_calls:c.pred_calls

exception Over_budget

type ctx = {
  db : (string * Value.t) list;
  backend : backend;
  dedup : dedup;
  counters : counters;
  budget : float;
}

let ctx ?(db = []) ?(backend = Naive) ?(dedup = Eager) ?(budget = infinity) ()
    =
  { db; backend; dedup; counters = fresh_counters (); budget }

(* Charge [n] tuples, then stop the run if the blend is now over budget.
   Tuple charges are the only places checked: they are far fewer than
   function and predicate calls, and the naive join and nest charge their
   whole nested loop before running it.  An unbudgeted run pays one float
   comparison. *)
let charge ctx n =
  let c = ctx.counters in
  c.tuples <- c.tuples + n;
  if ctx.budget < infinity && weighted_of c > ctx.budget then
    raise Over_budget

(* Build an intermediate collection under the context's discipline. *)
let collection ctx elems =
  match ctx.dedup with
  | Eager -> Value.set elems
  | Deferred -> Value.Bag elems

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

let as_set ctx v =
  match resolve ctx v with
  | Value.Set xs -> xs
  | Value.Bag xs -> xs
  | Value.List xs -> xs
  | v -> error "expected a set, got %a" Value.pp v

let as_int ctx v =
  match resolve ctx v with
  | Value.Int i -> i
  | v -> error "expected an int, got %a" Value.pp v


module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Value comparison used by leq/gt; ints compare numerically, strings
   lexicographically.  Other values use the canonical structural order so
   that ordering predicates are total, as an optimizer substrate needs. *)
let value_leq a b = Value.compare a b <= 0
let value_gt a b = Value.compare a b > 0

let rec func ctx f v =
  ctx.counters.func_calls <- ctx.counters.func_calls + 1;
  match f with
  | Id -> resolve ctx v
  | Pi1 -> fst (as_pair ctx v)
  | Pi2 -> snd (as_pair ctx v)
  | Prim name -> (
    match resolve ctx v with
    | Value.Obj _ as o -> (
      match Value.field name o with
      | Some x -> x
      | None -> error "object %a has no attribute %s" Value.pp o name)
    | v -> error "attribute %s applied to non-object %a" name Value.pp v)
  | Compose (f, g) -> func ctx f (func ctx g v)
  | Pairf (f, g) -> Value.Pair (func ctx f v, func ctx g v)
  | Times (f, g) ->
    let a, b = as_pair ctx v in
    Value.Pair (func ctx f a, func ctx g b)
  | Kf c -> resolve ctx c
  | Cf (f, c) -> func ctx f (Value.Pair (c, v))
  | Con (p, f, g) -> if pred ctx p v then func ctx f v else func ctx g v
  | Arith op ->
    let a, b = as_pair ctx v in
    let a = as_int ctx a and b = as_int ctx b in
    Value.Int (match op with Add -> a + b | Sub -> a - b | Mul -> a * b)
  | Agg op -> (
    let xs = as_set ctx v in
    charge ctx (List.length xs);
    match op with
    | Count -> Value.Int (List.length xs)
    | Sum -> Value.Int (List.fold_left (fun acc x -> acc + as_int ctx x) 0 xs)
    | Max -> (
      match xs with
      | [] -> error "max of empty set"
      | x :: rest ->
        List.fold_left (fun m y -> if value_gt y m then y else m) x rest)
    | Min -> (
      match xs with
      | [] -> error "min of empty set"
      | x :: rest ->
        List.fold_left (fun m y -> if value_gt m y then y else m) x rest))
  | Setop op -> (
    let a, b = as_pair ctx v in
    let xs = as_set ctx a and ys = as_set ctx b in
    charge ctx (List.length xs + List.length ys);
    match op with
    | Union -> collection ctx (xs @ ys)
    | Inter ->
      collection ctx (List.filter (fun x -> List.exists (Value.equal x) ys) xs)
    | Diff ->
      collection ctx
        (List.filter (fun x -> not (List.exists (Value.equal x) ys)) xs))
  | Sng -> Value.set [ resolve ctx v ]
  | Flat ->
    let outer = as_set ctx v in
    charge ctx (List.length outer);
    collection ctx (List.concat_map (fun s -> as_set ctx s) outer)
  | Iterate (p, f) ->
    let xs = as_set ctx v in
    charge ctx (List.length xs);
    collection ctx
      (List.filter_map
         (fun x -> if pred ctx p x then Some (func ctx f x) else None)
         xs)
  | Iter (p, f) ->
    let e, set = as_pair ctx v in
    let ys = as_set ctx set in
    charge ctx (List.length ys);
    collection ctx
      (List.filter_map
         (fun y ->
           let pair = Value.Pair (e, y) in
           if pred ctx p pair then Some (func ctx f pair) else None)
         ys)
  | Join (p, f) -> join ctx p f v
  | Nest (f, g) -> nest ctx f g v
  | Unnest (f, g) ->
    let xs = as_set ctx v in
    charge ctx (List.length xs);
    collection ctx
      (List.concat_map
         (fun x ->
           let key = func ctx f x in
           let inner = as_set ctx (func ctx g x) in
           charge ctx (List.length inner);
           List.map (fun y -> Value.Pair (key, y)) inner)
         xs)
  | Fhole h -> error "evaluated a pattern hole ?%s" h

and pred ctx p v =
  ctx.counters.pred_calls <- ctx.counters.pred_calls + 1;
  match p with
  | Eq ->
    let a, b = as_pair ctx v in
    Value.equal (resolve ctx a) (resolve ctx b)
  | Leq ->
    let a, b = as_pair ctx v in
    value_leq (resolve ctx a) (resolve ctx b)
  | Gt ->
    let a, b = as_pair ctx v in
    value_gt (resolve ctx a) (resolve ctx b)
  | In ->
    let a, b = as_pair ctx v in
    let a = resolve ctx a in
    let ys = as_set ctx b in
    charge ctx (List.length ys);
    List.exists (Value.equal a) ys
  | Primp name -> (
    match resolve ctx v with
    | Value.Obj _ as o -> (
      match Value.field name o with
      | Some (Value.Bool b) -> b
      | Some x -> error "predicate attribute %s is not boolean: %a" name Value.pp x
      | None -> error "object %a has no attribute %s" Value.pp o name)
    | v -> error "predicate %s applied to non-object %a" name Value.pp v)
  | Oplus (p, f) -> pred ctx p (func ctx f v)
  | Andp (p, q) -> pred ctx p v && pred ctx q v
  | Orp (p, q) -> pred ctx p v || pred ctx q v
  | Inv p -> not (pred ctx p v)
  | Conv p ->
    let a, b = as_pair ctx v in
    pred ctx p (Value.Pair (b, a))
  | Kp b -> b
  | Cp (p, c) -> pred ctx p (Value.Pair (c, v))
  | Phole h -> error "evaluated a pattern hole ?%s" h

(* join(p, f) ! [A, B].  Under [Hashed] we recognise
     p = q ⊕ (g1 × g2) [& r]      with q ∈ {eq, in}
   and build a hash index over B keyed by g2 (eq) or by the elements of
   g2!b (in); any residual conjunct r is applied as a filter. *)
and join ctx p f v =
  let a, b = as_pair ctx v in
  let xs = as_set ctx a and ys = as_set ctx b in
  let naive () =
    charge ctx (List.length xs * (1 + List.length ys));
    collection ctx
      (List.concat_map
         (fun x ->
           List.filter_map
             (fun y ->
               let pair = Value.Pair (x, y) in
               if pred ctx p pair then Some (func ctx f pair) else None)
             ys)
         xs)
  in
  match ctx.backend with
  | Naive -> naive ()
  | Hashed -> (
    match hash_joinable p with
    | None -> naive ()
    | Some (kind, g1, g2, residual) ->
      charge ctx (List.length xs + List.length ys);
      let index : Value.t list VH.t = VH.create (2 * List.length ys) in
      let add key y =
        let prev = Option.value ~default:[] (VH.find_opt index key) in
        VH.replace index key (y :: prev)
      in
      List.iter
        (fun y ->
          match kind with
          | `Eq -> add (func ctx g2 y) y
          | `In ->
            let elems = as_set ctx (func ctx g2 y) in
            charge ctx (List.length elems);
            List.iter (fun e -> add e y) elems)
        ys;
      let out =
        List.concat_map
          (fun x ->
            let key = func ctx g1 x in
            let matches = Option.value ~default:[] (VH.find_opt index key) in
            List.filter_map
              (fun y ->
                let pair = Value.Pair (x, y) in
                let keep =
                  match residual with None -> true | Some r -> pred ctx r pair
                in
                if keep then Some (func ctx f pair) else None)
              matches)
          xs
      in
      collection ctx out)

(* Decompose a join predicate into an indexable part and a residual.
   Recognised shapes: q ⊕ (g1 × g2), and q ⊕ ⟨h1, h2⟩ where one of h1/h2
   projects (a function of) the first component and the other the second —
   e.g. the translator's eq ⊕ ⟨dept ∘ π2, π1⟩. *)
and hash_joinable p =
  let side h =
    match Term.unchain h with
    | [ Pi1 ] -> Some (`L Id)
    | [ Pi2 ] -> Some (`R Id)
    | parts -> (
      match List.rev parts with
      | Pi1 :: (_ :: _ as rev_rest) -> Some (`L (Term.chain (List.rev rev_rest)))
      | Pi2 :: (_ :: _ as rev_rest) -> Some (`R (Term.chain (List.rev rev_rest)))
      | _ -> None)
  in
  match p with
  | Oplus (Eq, Times (g1, g2)) -> Some (`Eq, g1, g2, None)
  | Oplus (In, Times (g1, g2)) -> Some (`In, g1, g2, None)
  | Oplus (Eq, Pairf (h1, h2)) -> (
    match side h1, side h2 with
    | Some (`L ga), Some (`R gb) | Some (`R gb), Some (`L ga) ->
      (* eq is symmetric: probe with the left extractor, index the right *)
      Some (`Eq, ga, gb, None)
    | _ -> None)
  | Oplus (In, Pairf (h1, h2)) -> (
    match side h1, side h2 with
    | Some (`L ga), Some (`R gb) -> Some (`In, ga, gb, None)
    | _ -> None)
  | Andp (p1, p2) -> (
    match hash_joinable p1 with
    | Some (kind, g1, g2, None) -> Some (kind, g1, g2, Some p2)
    | Some (kind, g1, g2, Some r) -> Some (kind, g1, g2, Some (Andp (r, p2)))
    | None -> (
      match hash_joinable p2 with
      | Some (kind, g1, g2, None) -> Some (kind, g1, g2, Some p1)
      | Some (kind, g1, g2, Some r) -> Some (kind, g1, g2, Some (Andp (p1, r)))
      | None -> None))
  | _ -> None

(* nest(f, g) ! [A, B] = {[y, {g!x | x ∈ A, f!x = y}] | y ∈ B}.  Elements of
   B matched by nothing in A get the empty set, which is how the paper's nest
   avoids outer-join NULLs. *)
and nest ctx f g v =
  let a, b = as_pair ctx v in
  let xs = as_set ctx a and ys = as_set ctx b in
  match ctx.backend with
  | Naive ->
    charge ctx (List.length ys * (1 + List.length xs));
    collection ctx
      (List.map
         (fun y ->
           let group =
             List.filter_map
               (fun x ->
                 if Value.equal (func ctx f x) y then Some (func ctx g x)
                 else None)
               xs
           in
           Value.Pair (y, collection ctx group))
         ys)
  | Hashed ->
    charge ctx (List.length xs + List.length ys);
    let groups : Value.t list VH.t = VH.create (2 * List.length ys) in
    List.iter
      (fun x ->
        let key = func ctx f x in
        let prev = Option.value ~default:[] (VH.find_opt groups key) in
        VH.replace groups key (func ctx g x :: prev))
      xs;
    collection ctx
      (List.map
         (fun y ->
           let group = Option.value ~default:[] (VH.find_opt groups y) in
           Value.Pair (y, collection ctx group))
         ys)

(* Replace every [Named] extent in a value by its database contents, so
   results can be compared structurally. *)
let rec deep_resolve ctx v =
  match resolve ctx v with
  | Value.Pair (a, b) -> Value.Pair (deep_resolve ctx a, deep_resolve ctx b)
  | Value.Set xs -> Value.set (List.map (deep_resolve ctx) xs)
  | Value.Bag xs -> Value.bag (List.map (deep_resolve ctx) xs)
  | Value.List xs -> Value.list (List.map (deep_resolve ctx) xs)
  | v -> v

(* Deduplicate a deferred result: every bag becomes a canonical set. *)
let rec finalize v =
  match v with
  | Value.Bag xs | Value.Set xs -> Value.set (List.map finalize xs)
  | Value.List xs -> Value.list (List.map finalize xs)
  | Value.Pair (a, b) -> Value.Pair (finalize a, finalize b)
  | v -> v

(* A budgeted run is also cut when its finished blend is over budget, so a
   plan is cut exactly when its cost exceeds the budget. *)
let run ctx (q : query) =
  let v = func ctx q.body q.arg in
  if weighted_of ctx.counters > ctx.budget then raise Over_budget;
  match ctx.dedup with Eager -> v | Deferred -> finalize v

(* Convenience entry points. *)
let eval_func ?db ?backend ?dedup f v =
  let c = ctx ?db ?backend ?dedup () in
  func c f v

let eval_pred ?db ?backend ?dedup p v =
  let c = ctx ?db ?backend ?dedup () in
  pred c p v

let eval_query ?db ?backend ?dedup q =
  let c = ctx ?db ?backend ?dedup () in
  run c q
