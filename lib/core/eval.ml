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
     evaluation stops with [Over_budget] once the blend exceeds it;
   - an optional sub-plan memo shared by every evaluation of a session.

   The recursion runs on interned terms ({!Term.Hc}): a subterm is one
   node wherever it occurs, so its id names it across every plan that
   contains it.  The plain entry points intern their argument first. *)

open Term
module H = Term.Hc

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

(* ------------------------------------------------------------------ *)
(* The sub-plan memo.

   KOLA has no variables: [f ! v] depends on [f] and [v] alone, so its
   result and the work it charges are the same in every plan that
   contains [f].  A session remembers both, keyed by the interned node's
   id and the input, and answers a later evaluation of the same node on
   the same input by adding the stored work to the counters.

   - Hits never cross the budget.  A hit is taken only when the counters
     plus the stored work still blend to at most the budget; the work of
     a real evaluation only grows, so no charge inside it could have cut.
     Otherwise the node is evaluated for real (its children may hit), and
     a cut lands on the same charge with the same counters as without a
     memo.
   - Objects in keys compare by physical identity: a stale embedded copy
     (same class and oid, other fields) never answers for its extent row.
   - Second-touch admission: a node's first evaluation in a session only
     records its id; entries are stored from its second on, so nodes a
     session evaluates once never hold their intermediate results.
   - A session holds at most [memo_capacity] entries and is emptied
     when full.  Failed and cut evaluations are never stored.
   - A session is one search's, used from the domain running it, so the
     hot path takes no lock.

   A session is valid for one database (by physical identity) and
   emptied when used against another; the backend and the dedup
   discipline are part of every key. *)

let rec same a b =
  a == b
  ||
  match a, b with
  | Value.Obj x, Value.Obj y -> x == y
  | Value.Pair (a1, b1), Value.Pair (a2, b2) -> same a1 a2 && same b1 b2
  | Value.Set xs, Value.Set ys
  | Value.Bag xs, Value.Bag ys
  | Value.List xs, Value.List ys -> same_list xs ys
  | (Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Named _
    | Value.Hole _), _ -> Value.equal a b
  | (Value.Obj _ | Value.Pair _ | Value.Set _ | Value.Bag _ | Value.List _), _
    -> false

and same_list xs ys =
  match xs, ys with
  | [], [] -> true
  | x :: xs, y :: ys -> same x y && same_list xs ys
  | _ -> false

(* [node] packs the node's id with its sort and the evaluation setting. *)
type key = { node : int; input : Value.t }

(* Inputs are often whole extents or intermediate sets: the key hashes
   their first few levels and elements, and [same] settles the rest. *)
module KH = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 = k1.node = k2.node && same k1.input k2.input

  let hash k =
    ((k.node * 0x01000193) lxor Value.shallow_hash 3 k.input) land max_int
end)

module IH = Hashtbl.Make (Int)

(* The work an evaluation charged, and its result ([Bool] for a
   predicate). *)
type entry = { result : Value.t; dt : int; df : int; dp : int }

type session = {
  entries : entry KH.t;
  touched : unit IH.t;
  mutable filled_for : (string * Value.t) list option;
}

(* Small at first: a session that costs a few candidates should not
   allocate its tables on the major heap. *)
let session () =
  { entries = KH.create 16; touched = IH.create 16; filled_for = None }

let memo_capacity = 1 lsl 16

(* One evaluation's view of its session, with what it took from and gave
   to it. *)
type memo = {
  table : session;
  ftag : int;
  ptag : int;
  mutable hits : int;
  mutable stored : int;
}

(* Empty the session when it was filled against another database. *)
let use_with s ~db =
  match s.filled_for with
  | Some filled when filled == db -> ()
  | Some _ | None ->
    KH.reset s.entries;
    IH.reset s.touched;
    s.filled_for <- Some db

type ctx = {
  db : (string * Value.t) list;
  backend : backend;
  dedup : dedup;
  counters : counters;
  budget : float;
  memo : memo option;
}

let ctx ?(db = []) ?(backend = Naive) ?(dedup = Eager) ?(budget = infinity)
    ?session () =
  let memo =
    Option.map
      (fun s ->
        let setting =
          (match backend with Naive -> 0 | Hashed -> 2)
          + match dedup with Eager -> 0 | Deferred -> 1
        in
        use_with s ~db;
        {
          table = s;
          ftag = setting;
          ptag = 4 + setting;
          hits = 0;
          stored = 0;
        })
      session
  in
  { db; backend; dedup; counters = fresh_counters (); budget; memo }

let memo_hits ctx = match ctx.memo with Some m -> m.hits | None -> 0
let memo_stored ctx = match ctx.memo with Some m -> m.stored | None -> 0

(* Nodes worth a lookup: composite, with a tuple-charging combinator
   somewhere below.  A leaf costs less than hashing its input.  Under
   this mask a node is composite exactly when its size exceeds 1: the
   charging leaves (aggregates, set operations, flat, in) have size 1,
   and a constant function's size counts its value but its heads carry
   no charging bit. *)
let charging_mask =
  let f n = H.fshape_bit n.H.fshape in
  f (H.agg Count) lor f (H.setop Union) lor f H.flat
  lor f (H.iterate H.eq H.id)
  lor f (H.iter H.eq H.id)
  lor f (H.join H.eq H.id)
  lor f (H.nest H.id H.id)
  lor f (H.unnest H.id H.id)
  lor H.pshape_bit H.inp.H.pshape

type probe = Hit of Value.t | Admit | Skip

(* A stored entry whose work keeps the blend within the budget is a hit;
   one that would cross it is skipped (evaluated, already stored).  A
   missing key is admitted on its node's second touch. *)
let lookup ctx m key =
  let t = m.table in
  match KH.find_opt t.entries key with
  | Some e ->
    let c = ctx.counters in
    let tuples = c.tuples + e.dt
    and func_calls = c.func_calls + e.df
    and pred_calls = c.pred_calls + e.dp in
    if weighted ~tuples ~func_calls ~pred_calls <= ctx.budget then begin
      c.tuples <- tuples;
      c.func_calls <- func_calls;
      c.pred_calls <- pred_calls;
      m.hits <- m.hits + 1;
      Hit e.result
    end
    else Skip
  | None ->
    if IH.mem t.touched key.node then Admit
    else begin
      IH.replace t.touched key.node ();
      Skip
    end

(* Run [eval] and store its result with the work it charged.  An
   exception (a failure or a cut) stores nothing. *)
let admit ctx m key eval =
  let c = ctx.counters in
  let t0 = c.tuples and f0 = c.func_calls and p0 = c.pred_calls in
  let result = eval () in
  let t = m.table in
  if KH.length t.entries >= memo_capacity then KH.reset t.entries;
  KH.replace t.entries key
    { result; dt = c.tuples - t0; df = c.func_calls - f0; dp = c.pred_calls - p0 };
  m.stored <- m.stored + 1;
  result

let stored_bool = function Value.Bool b -> b | _ -> false

(* ------------------------------------------------------------------ *)

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
  | v -> error "expected a pair, got %a" Value.pp_brief v

let as_set ctx v =
  match resolve ctx v with
  | Value.Set xs -> xs
  | Value.Bag xs -> xs
  | Value.List xs -> xs
  | v -> error "expected a set, got %a" Value.pp_brief v

let as_int ctx v =
  match resolve ctx v with
  | Value.Int i -> i
  | v -> error "expected an int, got %a" Value.pp_brief v


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

(* Decompose a join predicate into an indexable part and a residual.
   Recognised shapes: q ⊕ (g1 × g2), and q ⊕ ⟨h1, h2⟩ where one of h1/h2
   projects (a function of) the first component and the other the second —
   e.g. the translator's eq ⊕ ⟨dept ∘ π2, π1⟩. *)
let rec decompose_join (p : H.pnode) =
  let side h =
    match H.unchain h with
    | [ { H.fshape = HPi1; _ } ] -> Some (`L H.id)
    | [ { H.fshape = HPi2; _ } ] -> Some (`R H.id)
    | parts -> (
      match List.rev parts with
      | { H.fshape = HPi1; _ } :: (_ :: _ as rev_rest) ->
        Some (`L (H.chain (List.rev rev_rest)))
      | { H.fshape = HPi2; _ } :: (_ :: _ as rev_rest) ->
        Some (`R (H.chain (List.rev rev_rest)))
      | _ -> None)
  in
  match p.pshape with
  | HOplus ({ pshape = HEq; _ }, { fshape = HTimes (g1, g2); _ }) ->
    Some (`Eq, g1, g2, None)
  | HOplus ({ pshape = HIn; _ }, { fshape = HTimes (g1, g2); _ }) ->
    Some (`In, g1, g2, None)
  | HOplus ({ pshape = HEq; _ }, { fshape = HPairf (h1, h2); _ }) -> (
    match side h1, side h2 with
    | Some (`L ga), Some (`R gb) | Some (`R gb), Some (`L ga) ->
      (* eq is symmetric: probe with the left extractor, index the right *)
      Some (`Eq, ga, gb, None)
    | _ -> None)
  | HOplus ({ pshape = HIn; _ }, { fshape = HPairf (h1, h2); _ }) -> (
    match side h1, side h2 with
    | Some (`L ga), Some (`R gb) -> Some (`In, ga, gb, None)
    | _ -> None)
  | HAndp (p1, p2) -> (
    match decompose_join p1 with
    | Some (kind, g1, g2, None) -> Some (kind, g1, g2, Some p2)
    | Some (kind, g1, g2, Some r) -> Some (kind, g1, g2, Some (H.andp r p2))
    | None -> (
      match decompose_join p2 with
      | Some (kind, g1, g2, None) -> Some (kind, g1, g2, Some p1)
      | Some (kind, g1, g2, Some r) -> Some (kind, g1, g2, Some (H.andp p1 r))
      | None -> None))
  | _ -> None

(* Decompositions build nodes, so each domain remembers them by predicate
   id: evaluating a join interns nothing after its first run. *)
let joinable_memo = Domain.DLS.new_key (fun () -> IH.create 16)

let joinable (p : H.pnode) =
  let tbl = Domain.DLS.get joinable_memo in
  match IH.find_opt tbl p.pid with
  | Some d -> d
  | None ->
    let d = decompose_join p in
    if IH.length tbl >= 4096 then IH.reset tbl;
    IH.replace tbl p.pid d;
    d

let hash_joinable p =
  Option.map
    (fun (kind, g1, g2, r) -> (kind, H.to_func g1, H.to_func g2, Option.map H.to_pred r))
    (joinable (H.of_pred p))

(* The memo's test sits in a wrapper that only tail-calls, so an
   evaluation without a session pays two loads and a branch per node. *)
let rec hfunc ctx (f : H.fnode) v =
  match ctx.memo with
  | Some m when f.fheads land charging_mask <> 0 && f.fsize > 1 ->
    memo_func ctx m f v
  | Some _ | None -> eval_func ctx f v

and hpred ctx (p : H.pnode) v =
  match ctx.memo with
  | Some m when p.pheads land charging_mask <> 0 && p.psize > 1 ->
    memo_pred ctx m p v
  | Some _ | None -> eval_pred ctx p v

and memo_func ctx m f v =
  let key = { node = (f.fid lsl 3) lor m.ftag; input = v } in
  match lookup ctx m key with
  | Hit r -> r
  | Skip -> eval_func ctx f v
  | Admit -> admit ctx m key (fun () -> eval_func ctx f v)

and memo_pred ctx m p v =
  let key = { node = (p.pid lsl 3) lor m.ptag; input = v } in
  match lookup ctx m key with
  | Hit r -> stored_bool r
  | Skip -> eval_pred ctx p v
  | Admit -> stored_bool (admit ctx m key (fun () -> Value.Bool (eval_pred ctx p v)))

and eval_func ctx (f : H.fnode) v =
  ctx.counters.func_calls <- ctx.counters.func_calls + 1;
  match f.fshape with
  | HId -> resolve ctx v
  | HPi1 -> fst (as_pair ctx v)
  | HPi2 -> snd (as_pair ctx v)
  | HPrim name -> (
    match resolve ctx v with
    | Value.Obj _ as o -> (
      match Value.field name o with
      | Some x -> x
      | None -> error "object %a has no attribute %s" Value.pp_brief o name)
    | v -> error "attribute %s applied to non-object %a" name Value.pp_brief v)
  | HCompose (f, g) -> hfunc ctx f (hfunc ctx g v)
  | HPairf (f, g) -> Value.Pair (hfunc ctx f v, hfunc ctx g v)
  | HTimes (f, g) ->
    let a, b = as_pair ctx v in
    Value.Pair (hfunc ctx f a, hfunc ctx g b)
  | HKf c -> resolve ctx c.vterm
  | HCf (f, c) -> hfunc ctx f (Value.Pair (c.vterm, v))
  | HCon (p, f, g) -> if hpred ctx p v then hfunc ctx f v else hfunc ctx g v
  | HArith op ->
    let a, b = as_pair ctx v in
    let a = as_int ctx a and b = as_int ctx b in
    Value.Int (match op with Add -> a + b | Sub -> a - b | Mul -> a * b)
  | HAgg op -> (
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
  | HSetop op -> (
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
  | HSng -> Value.set [ resolve ctx v ]
  | HFlat ->
    let outer = as_set ctx v in
    charge ctx (List.length outer);
    collection ctx (List.concat_map (fun s -> as_set ctx s) outer)
  | HIterate (p, f) ->
    let xs = as_set ctx v in
    charge ctx (List.length xs);
    collection ctx
      (List.filter_map
         (fun x -> if hpred ctx p x then Some (hfunc ctx f x) else None)
         xs)
  | HIter (p, f) ->
    let e, set = as_pair ctx v in
    let ys = as_set ctx set in
    charge ctx (List.length ys);
    collection ctx
      (List.filter_map
         (fun y ->
           let pair = Value.Pair (e, y) in
           if hpred ctx p pair then Some (hfunc ctx f pair) else None)
         ys)
  | HJoin (p, f) -> join ctx p f v
  | HNest (f, g) -> nest ctx f g v
  | HUnnest (f, g) ->
    let xs = as_set ctx v in
    charge ctx (List.length xs);
    collection ctx
      (List.concat_map
         (fun x ->
           let key = hfunc ctx f x in
           let inner = as_set ctx (hfunc ctx g x) in
           charge ctx (List.length inner);
           List.map (fun y -> Value.Pair (key, y)) inner)
         xs)
  | HFhole h -> error "evaluated a pattern hole ?%s" h

and eval_pred ctx (p : H.pnode) v =
  ctx.counters.pred_calls <- ctx.counters.pred_calls + 1;
  match p.pshape with
  | HEq ->
    let a, b = as_pair ctx v in
    Value.equal (resolve ctx a) (resolve ctx b)
  | HLeq ->
    let a, b = as_pair ctx v in
    value_leq (resolve ctx a) (resolve ctx b)
  | HGt ->
    let a, b = as_pair ctx v in
    value_gt (resolve ctx a) (resolve ctx b)
  | HIn ->
    let a, b = as_pair ctx v in
    let a = resolve ctx a in
    let ys = as_set ctx b in
    charge ctx (List.length ys);
    List.exists (Value.equal a) ys
  | HPrimp name -> (
    match resolve ctx v with
    | Value.Obj _ as o -> (
      match Value.field name o with
      | Some (Value.Bool b) -> b
      | Some x -> error "predicate attribute %s is not boolean: %a" name Value.pp_brief x
      | None -> error "object %a has no attribute %s" Value.pp_brief o name)
    | v -> error "predicate %s applied to non-object %a" name Value.pp_brief v)
  | HOplus (p, f) -> hpred ctx p (hfunc ctx f v)
  | HAndp (p, q) -> hpred ctx p v && hpred ctx q v
  | HOrp (p, q) -> hpred ctx p v || hpred ctx q v
  | HInv p -> not (hpred ctx p v)
  | HConv p ->
    let a, b = as_pair ctx v in
    hpred ctx p (Value.Pair (b, a))
  | HKp b -> b
  | HCp (p, c) -> hpred ctx p (Value.Pair (c.vterm, v))
  | HPhole h -> error "evaluated a pattern hole ?%s" h

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
               if hpred ctx p pair then Some (hfunc ctx f pair) else None)
             ys)
         xs)
  in
  match ctx.backend with
  | Naive -> naive ()
  | Hashed -> (
    match joinable p with
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
          | `Eq -> add (hfunc ctx g2 y) y
          | `In ->
            let elems = as_set ctx (hfunc ctx g2 y) in
            charge ctx (List.length elems);
            List.iter (fun e -> add e y) elems)
        ys;
      let out =
        List.concat_map
          (fun x ->
            let key = hfunc ctx g1 x in
            let matches = Option.value ~default:[] (VH.find_opt index key) in
            List.filter_map
              (fun y ->
                let pair = Value.Pair (x, y) in
                let keep =
                  match residual with None -> true | Some r -> hpred ctx r pair
                in
                if keep then Some (hfunc ctx f pair) else None)
              matches)
          xs
      in
      collection ctx out)

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
                 if Value.equal (hfunc ctx f x) y then Some (hfunc ctx g x)
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
        let key = hfunc ctx f x in
        let prev = Option.value ~default:[] (VH.find_opt groups key) in
        VH.replace groups key (hfunc ctx g x :: prev))
      xs;
    collection ctx
      (List.map
         (fun y ->
           let group = Option.value ~default:[] (VH.find_opt groups y) in
           Value.Pair (y, collection ctx group))
         ys)

let func ctx f v = hfunc ctx (H.of_func f) v
let pred ctx p v = hpred ctx (H.of_pred p) v

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
let run_body ctx body arg =
  let v = hfunc ctx body arg in
  if weighted_of ctx.counters > ctx.budget then raise Over_budget;
  match ctx.dedup with Eager -> v | Deferred -> finalize v

let hrun ctx (hq : H.hquery) = run_body ctx hq.hbody hq.harg.vterm

(* The argument stays as given: only the plan is interned. *)
let run ctx (q : query) = run_body ctx (H.of_func q.body) q.arg

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
