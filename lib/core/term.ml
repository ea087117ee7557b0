(* KOLA terms: the combinator algebra of Tables 1 and 2.

   Functions are invoked with [!] and predicates with [?] (see {!Eval}).
   [Fhole]/[Phole] are metavariables; they may appear only in rule patterns
   (see {!Rewrite}) and make ground terms and patterns share one
   representation, so rules need no separate pattern language.

   Beyond the paper's Tables 1-2 we include arithmetic and aggregate
   primitives ([Arith], [Agg]) and set operations ([Setop]); these are needed
   for the precondition examples of Section 4.2 (intersection), the count-bug
   reproduction, and realistic workloads. *)

type arith = Add | Sub | Mul
type agg = Count | Sum | Max | Min
type setop = Union | Inter | Diff

type func =
  | Id                       (** identity: id!x = x *)
  | Pi1                      (** π1![x,y] = x *)
  | Pi2                      (** π2![x,y] = y *)
  | Prim of string           (** schema attribute function, e.g. age *)
  | Compose of func * func   (** (f ∘ g)!x = f!(g!x) *)
  | Pairf of func * func     (** (f, g)!x = [f!x, g!x] *)
  | Times of func * func     (** (f × g)![x,y] = [f!x, g!y] *)
  | Kf of Value.t            (** Kf(c)!x = c *)
  | Cf of func * Value.t     (** Cf(f, c)!y = f![c, y] *)
  | Con of pred * func * func (** con(p,f,g)!x = if p?x then f!x else g!x *)
  | Arith of arith           (** binary, on pairs of ints *)
  | Agg of agg               (** aggregate over a set of ints *)
  | Setop of setop           (** binary, on pairs of sets *)
  | Sng                      (** sng!x = {x} *)
  | Flat                     (** flat!A = {x | x ∈ B, B ∈ A} *)
  | Iterate of pred * func   (** iterate(p,f)!A = {f!x | x ∈ A, p?x} *)
  | Iter of pred * func      (** iter(p,f)![e,B] = {f![e,y] | y ∈ B, p?[e,y]} *)
  | Join of pred * func      (** join(p,f)![A,B] = {f![x,y] | x∈A, y∈B, p?[x,y]} *)
  | Nest of func * func      (** nest(f,g)![A,B] = {[y, {g!x | x∈A, f!x=y}] | y∈B} *)
  | Unnest of func * func    (** unnest(f,g)!A = {[f!x, y] | x∈A, y ∈ g!x} *)
  | Fhole of string

and pred =
  | Eq                       (** eq?[x,y] = (x = y) *)
  | Leq                      (** leq?[x,y] = x ≤ y *)
  | Gt                       (** gt?[x,y] = x > y *)
  | In                       (** in?[x,A] = x ∈ A *)
  | Primp of string          (** schema predicate *)
  | Oplus of pred * func     (** (p ⊕ f)?x = p?(f!x) *)
  | Andp of pred * pred      (** (p & q)?x = p?x ∧ q?x *)
  | Orp of pred * pred       (** (p | q)?x = p?x ∨ q?x *)
  | Inv of pred              (** p⁻¹?x = ¬(p?x); negation, satisfying rule 7 *)
  | Conv of pred             (** pᵒ?[x,y] = p?[y,x]; converse, repairing rule 13 *)
  | Kp of bool               (** Kp(b)?x = b *)
  | Cp of pred * Value.t     (** Cp(p, c)?y = p?[c, y] *)
  | Phole of string

(* A query pairs a KOLA function with the argument it is invoked on, as in
   the paper's [iterate (...) ! V]. *)
type query = { body : func; arg : Value.t }

let query body arg = { body; arg }

(* Smart constructors / common abbreviations.  [sel] and [proj] are the
   paper's footnote-3 derived forms. *)
let ( ^>> ) g f = Compose (f, g)
let compose f g = Compose (f, g)
let sel p = Iterate (p, Id)
let proj f = Iterate (Kp true, f)
let ktrue = Kp true
let kfalse = Kp false

(* Composition chains, exploiting associativity as the paper does for its
   printed forms.  [chain [f1; f2; f3]] is f1 ∘ f2 ∘ f3. *)
let chain = function
  | [] -> Id
  | f :: fs -> List.fold_left (fun acc g -> Compose (acc, g)) f fs

let rec unchain = function
  | Compose (f, g) -> unchain f @ unchain g
  | f -> [ f ]

(* Rebuild every composition chain in left-associated form, recursively.
   Rules match chains modulo associativity (see {!Rewrite.Rule}), so terms
   are compared after [reassoc]. *)
let rec reassoc_func f =
  match f with
  | Compose _ ->
    let parts = List.map reassoc_func (unchain f) in
    chain parts
  | Id | Pi1 | Pi2 | Prim _ | Flat | Sng | Arith _ | Agg _ | Setop _
  | Kf _ | Fhole _ -> f
  | Pairf (a, b) -> Pairf (reassoc_func a, reassoc_func b)
  | Times (a, b) -> Times (reassoc_func a, reassoc_func b)
  | Nest (a, b) -> Nest (reassoc_func a, reassoc_func b)
  | Unnest (a, b) -> Unnest (reassoc_func a, reassoc_func b)
  | Cf (a, v) -> Cf (reassoc_func a, v)
  | Con (p, a, b) -> Con (reassoc_pred p, reassoc_func a, reassoc_func b)
  | Iterate (p, a) -> Iterate (reassoc_pred p, reassoc_func a)
  | Iter (p, a) -> Iter (reassoc_pred p, reassoc_func a)
  | Join (p, a) -> Join (reassoc_pred p, reassoc_func a)

and reassoc_pred p =
  match p with
  | Eq | Leq | Gt | In | Primp _ | Kp _ | Phole _ -> p
  | Oplus (q, f) -> Oplus (reassoc_pred q, reassoc_func f)
  | Andp (q, r) -> Andp (reassoc_pred q, reassoc_pred r)
  | Orp (q, r) -> Orp (reassoc_pred q, reassoc_pred r)
  | Inv q -> Inv (reassoc_pred q)
  | Conv q -> Conv (reassoc_pred q)
  | Cp (q, v) -> Cp (reassoc_pred q, v)

let rec equal_func a b =
  match a, b with
  | Id, Id | Pi1, Pi1 | Pi2, Pi2 | Flat, Flat | Sng, Sng -> true
  | Prim x, Prim y -> String.equal x y
  | Compose (f1, g1), Compose (f2, g2)
  | Pairf (f1, g1), Pairf (f2, g2)
  | Times (f1, g1), Times (f2, g2)
  | Nest (f1, g1), Nest (f2, g2)
  | Unnest (f1, g1), Unnest (f2, g2) -> equal_func f1 f2 && equal_func g1 g2
  | Kf v1, Kf v2 -> Value.equal v1 v2
  | Cf (f1, v1), Cf (f2, v2) -> equal_func f1 f2 && Value.equal v1 v2
  | Con (p1, f1, g1), Con (p2, f2, g2) ->
    equal_pred p1 p2 && equal_func f1 f2 && equal_func g1 g2
  | Arith x, Arith y -> x = y
  | Agg x, Agg y -> x = y
  | Setop x, Setop y -> x = y
  | Iterate (p1, f1), Iterate (p2, f2)
  | Iter (p1, f1), Iter (p2, f2)
  | Join (p1, f1), Join (p2, f2) -> equal_pred p1 p2 && equal_func f1 f2
  | Fhole x, Fhole y -> String.equal x y
  | ( ( Id | Pi1 | Pi2 | Prim _ | Compose _ | Pairf _ | Times _ | Kf _ | Cf _
      | Con _ | Arith _ | Agg _ | Setop _ | Flat | Sng | Iterate _ | Iter _
      | Join _ | Nest _ | Unnest _ | Fhole _ ),
      _ ) -> false

and equal_pred a b =
  match a, b with
  | Eq, Eq | Leq, Leq | Gt, Gt | In, In -> true
  | Primp x, Primp y -> String.equal x y
  | Oplus (p1, f1), Oplus (p2, f2) -> equal_pred p1 p2 && equal_func f1 f2
  | Andp (p1, q1), Andp (p2, q2) | Orp (p1, q1), Orp (p2, q2) ->
    equal_pred p1 p2 && equal_pred q1 q2
  | Inv p1, Inv p2 | Conv p1, Conv p2 -> equal_pred p1 p2
  | Kp b1, Kp b2 -> Bool.equal b1 b2
  | Cp (p1, v1), Cp (p2, v2) -> equal_pred p1 p2 && Value.equal v1 v2
  | Phole x, Phole y -> String.equal x y
  | ( (Eq | Leq | Gt | In | Primp _ | Oplus _ | Andp _ | Orp _ | Inv _
      | Conv _ | Kp _ | Cp _ | Phole _),
      _ ) -> false

let equal_query q1 q2 = equal_func q1.body q2.body && Value.equal q1.arg q2.arg

(* Size in parse-tree nodes, the measure used by the paper's Section 4.2
   complexity discussion.  Constant values count their own nodes. *)
let rec size_func = function
  | Id | Pi1 | Pi2 | Prim _ | Flat | Sng | Arith _ | Agg _ | Setop _
  | Fhole _ -> 1
  | Compose (f, g) | Pairf (f, g) | Times (f, g) | Nest (f, g) | Unnest (f, g)
    -> 1 + size_func f + size_func g
  | Kf v -> 1 + Value.size v
  | Cf (f, v) -> 1 + size_func f + Value.size v
  | Con (p, f, g) -> 1 + size_pred p + size_func f + size_func g
  | Iterate (p, f) | Iter (p, f) | Join (p, f) -> 1 + size_pred p + size_func f

and size_pred = function
  | Eq | Leq | Gt | In | Primp _ | Kp _ | Phole _ -> 1
  | Oplus (p, f) -> 1 + size_pred p + size_func f
  | Andp (p, q) | Orp (p, q) -> 1 + size_pred p + size_pred q
  | Inv p | Conv p -> 1 + size_pred p
  | Cp (p, v) -> 1 + size_pred p + Value.size v

let rec func_is_ground = function
  | Fhole _ -> false
  | Id | Pi1 | Pi2 | Prim _ | Flat | Sng | Arith _ | Agg _ | Setop _ -> true
  | Compose (f, g) | Pairf (f, g) | Times (f, g) | Nest (f, g) | Unnest (f, g)
    -> func_is_ground f && func_is_ground g
  | Kf v -> Value.is_ground v
  | Cf (f, v) -> func_is_ground f && Value.is_ground v
  | Con (p, f, g) -> pred_is_ground p && func_is_ground f && func_is_ground g
  | Iterate (p, f) | Iter (p, f) | Join (p, f) ->
    pred_is_ground p && func_is_ground f

and pred_is_ground = function
  | Phole _ -> false
  | Eq | Leq | Gt | In | Primp _ | Kp _ -> true
  | Oplus (p, f) -> pred_is_ground p && func_is_ground f
  | Andp (p, q) | Orp (p, q) -> pred_is_ground p && pred_is_ground q
  | Inv p | Conv p -> pred_is_ground p
  | Cp (p, v) -> pred_is_ground p && Value.is_ground v

(* Holes occurring in a term, used by rule well-formedness checks. *)
let holes_func f =
  let acc = ref [] in
  let add h = if not (List.mem h !acc) then acc := h :: !acc in
  let rec gof = function
    | Fhole h -> add ("f:" ^ h)
    | Id | Pi1 | Pi2 | Prim _ | Flat | Sng | Arith _ | Agg _ | Setop _ -> ()
    | Compose (f, g) | Pairf (f, g) | Times (f, g) | Nest (f, g) | Unnest (f, g)
      ->
      gof f;
      gof g
    | Kf v -> gov v
    | Cf (f, v) ->
      gof f;
      gov v
    | Con (p, f, g) ->
      gop p;
      gof f;
      gof g
    | Iterate (p, f) | Iter (p, f) | Join (p, f) ->
      gop p;
      gof f
  and gop = function
    | Phole h -> add ("p:" ^ h)
    | Eq | Leq | Gt | In | Primp _ | Kp _ -> ()
    | Oplus (p, f) ->
      gop p;
      gof f
    | Andp (p, q) | Orp (p, q) ->
      gop p;
      gop q
    | Inv p | Conv p -> gop p
    | Cp (p, v) ->
      gop p;
      gov v
  and gov = function
    | Value.Hole h -> add ("v:" ^ h)
    | Value.Pair (a, b) ->
      gov a;
      gov b
    | Value.Set xs | Value.Bag xs | Value.List xs -> List.iter gov xs
    | Value.Obj o -> List.iter (fun (_, x) -> gov x) o.fields
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Named _ ->
      ()
  in
  gof f;
  List.rev !acc

(* Equality modulo associativity of composition. *)
let equal_func_assoc a b = equal_func (reassoc_func a) (reassoc_func b)
let equal_pred_assoc a b = equal_pred (reassoc_pred a) (reassoc_pred b)

let equal_query_assoc q1 q2 =
  equal_func_assoc q1.body q2.body && Value.equal q1.arg q2.arg

(* Structural hashing, consistent with [equal_func]/[equal_pred]: equal terms
   hash equal.  One multiplicative combine per node keeps a hash linear in
   the term size — the optimizer's dedup uses it instead of pretty-printing
   states to strings (see {!Canonical}). *)
let hash_combine h1 h2 = (h1 * 0x01000193) lxor h2

let rec hash_func f =
  match f with
  | Id -> 3
  | Pi1 -> 5
  | Pi2 -> 7
  | Flat -> 11
  | Sng -> 13
  | Prim s -> hash_combine 17 (Hashtbl.hash s)
  | Compose (a, b) -> hash_combine 19 (hash_combine (hash_func a) (hash_func b))
  | Pairf (a, b) -> hash_combine 23 (hash_combine (hash_func a) (hash_func b))
  | Times (a, b) -> hash_combine 29 (hash_combine (hash_func a) (hash_func b))
  | Nest (a, b) -> hash_combine 31 (hash_combine (hash_func a) (hash_func b))
  | Unnest (a, b) -> hash_combine 37 (hash_combine (hash_func a) (hash_func b))
  | Kf v -> hash_combine 41 (Value.hash v)
  | Cf (a, v) -> hash_combine 43 (hash_combine (hash_func a) (Value.hash v))
  | Con (p, a, b) ->
    hash_combine 47
      (hash_combine (hash_pred p) (hash_combine (hash_func a) (hash_func b)))
  | Arith op -> hash_combine 53 (Hashtbl.hash op)
  | Agg op -> hash_combine 59 (Hashtbl.hash op)
  | Setop op -> hash_combine 61 (Hashtbl.hash op)
  | Iterate (p, a) -> hash_combine 67 (hash_combine (hash_pred p) (hash_func a))
  | Iter (p, a) -> hash_combine 71 (hash_combine (hash_pred p) (hash_func a))
  | Join (p, a) -> hash_combine 73 (hash_combine (hash_pred p) (hash_func a))
  | Fhole h -> hash_combine 79 (Hashtbl.hash h)

and hash_pred p =
  match p with
  | Eq -> 83
  | Leq -> 89
  | Gt -> 97
  | In -> 101
  | Primp s -> hash_combine 103 (Hashtbl.hash s)
  | Oplus (q, f) -> hash_combine 107 (hash_combine (hash_pred q) (hash_func f))
  | Andp (q, r) -> hash_combine 109 (hash_combine (hash_pred q) (hash_pred r))
  | Orp (q, r) -> hash_combine 113 (hash_combine (hash_pred q) (hash_pred r))
  | Inv q -> hash_combine 127 (hash_pred q)
  | Conv q -> hash_combine 131 (hash_pred q)
  | Kp b -> if b then 137 else 139
  | Cp (q, v) -> hash_combine 149 (hash_combine (hash_pred q) (Value.hash v))
  | Phole h -> hash_combine 151 (Hashtbl.hash h)

let hash_query q = hash_combine (hash_func q.body) (Value.hash q.arg)

(* Canonical keys: a query reassociated into left-nested composition form
   with its hash computed once.  Equality is hash-then-structural, so
   hashtable dedup over rewrite states costs one traversal per state instead
   of allocating a pretty-printed string per state. *)
module Canonical = struct
  type t = { cq : query; chash : int }

  let of_query q =
    let cq = { q with body = reassoc_func q.body } in
    { cq; chash = hash_query cq }

  let to_query t = t.cq
  let hash t = t.chash
  let equal a b = a.chash = b.chash && equal_query a.cq b.cq

  module Table = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

(* Hash-consed (interned) terms: every structurally distinct subterm gets one
   canonical in-memory node, so equality is [==], and hash/size/groundness
   are O(1) field reads instead of term walks.  Node hashes reuse the exact
   [hash_func]/[hash_pred]/[Value.hash] recurrences, computed shallowly from
   the children's stored hashes; [fterm]/[pterm]/[vterm] keep an always-valid
   plain view (built shallowly from the children's plain views), making
   [to_func] and friends O(1).

   Interning is modulo [Value.equal], which compares objects by identity
   ([cls], [oid]) and ignores their fields — the first representative of an
   object interned wins, exactly matching the equivalence [Canonical]
   keys use.  (A workload holding two same-identity
   objects with different field lists would see the second's fields replaced
   by the first's in plain views; the object model never produces that.)

   [fcanon]/[pcanon] memoize reassociation ([reassoc_func] mirrored on
   nodes): computed once per unique subterm ever interned, not once per
   successor.  The fields are benignly racy under domains — every racer
   computes the same physical node (canon is deterministic and interning
   returns physical representatives), so concurrent writes store physically
   equal values. *)
module Hc = struct
  type fnode = {
    fshape : fshape;
    fterm : func;
    fid : int;
    fhash : int;
    fsize : int;
    fheads : int;
    fhole_free : bool;
    mutable fcanon : fnode option;
  }

  and pnode = {
    pshape : pshape;
    pterm : pred;
    pid : int;
    phash : int;
    psize : int;
    pheads : int;
    phole_free : bool;
    mutable pcanon : pnode option;
  }

  and vnode = {
    vshape : vshape;
    vterm : Value.t;
    vid : int;
    vhash : int;
    vsize : int;
    vhole_free : bool;
  }

  and fshape =
    | HId
    | HPi1
    | HPi2
    | HPrim of string
    | HCompose of fnode * fnode
    | HPairf of fnode * fnode
    | HTimes of fnode * fnode
    | HKf of vnode
    | HCf of fnode * vnode
    | HCon of pnode * fnode * fnode
    | HArith of arith
    | HAgg of agg
    | HSetop of setop
    | HSng
    | HFlat
    | HIterate of pnode * fnode
    | HIter of pnode * fnode
    | HJoin of pnode * fnode
    | HNest of fnode * fnode
    | HUnnest of fnode * fnode
    | HFhole of string

  and pshape =
    | HEq
    | HLeq
    | HGt
    | HIn
    | HPrimp of string
    | HOplus of pnode * fnode
    | HAndp of pnode * pnode
    | HOrp of pnode * pnode
    | HInv of pnode
    | HConv of pnode
    | HKp of bool
    | HCp of pnode * vnode
    | HPhole of string

  and vshape =
    | HVunit
    | HVbool of bool
    | HVint of int
    | HVstr of string
    | HVpair of vnode * vnode
    | HVset of vnode list
    | HVbag of vnode list
    | HVlist of vnode list
    | HVobj of Value.obj
    | HVnamed of string
    | HVhole of string

  (* Head-constructor bitmask layout: func heads at bits 0-19 (constructor
     declaration order), pred heads at bits 20-31.  Holes carry no bit (they
     are pattern metavariables, not heads), and values contribute nothing —
     rewriting never descends into Kf/Cf/Cp constants.
     {!Rewrite.Index.head_bit} must agree with this numbering (enforced by
     test_hashcons). *)
  let fshape_bit = function
    | HId -> 1 lsl 0
    | HPi1 -> 1 lsl 1
    | HPi2 -> 1 lsl 2
    | HPrim _ -> 1 lsl 3
    | HCompose _ -> 1 lsl 4
    | HPairf _ -> 1 lsl 5
    | HTimes _ -> 1 lsl 6
    | HKf _ -> 1 lsl 7
    | HCf _ -> 1 lsl 8
    | HCon _ -> 1 lsl 9
    | HArith _ -> 1 lsl 10
    | HAgg _ -> 1 lsl 11
    | HSetop _ -> 1 lsl 12
    | HSng -> 1 lsl 13
    | HFlat -> 1 lsl 14
    | HIterate _ -> 1 lsl 15
    | HIter _ -> 1 lsl 16
    | HJoin _ -> 1 lsl 17
    | HNest _ -> 1 lsl 18
    | HUnnest _ -> 1 lsl 19
    | HFhole _ -> 0

  let pshape_bit = function
    | HEq -> 1 lsl 20
    | HLeq -> 1 lsl 21
    | HGt -> 1 lsl 22
    | HIn -> 1 lsl 23
    | HPrimp _ -> 1 lsl 24
    | HOplus _ -> 1 lsl 25
    | HAndp _ -> 1 lsl 26
    | HOrp _ -> 1 lsl 27
    | HInv _ -> 1 lsl 28
    | HConv _ -> 1 lsl 29
    | HKp _ -> 1 lsl 30
    | HCp _ -> 1 lsl 31
    | HPhole _ -> 0

  let compose_mask = 1 lsl 4

  module Vnode = struct
    type shape = vshape
    type t = vnode

    (* Shallow mirror of [Value.hash]. *)
    let hash = function
      | HVunit -> 17
      | HVbool b -> if b then 31 else 37
      | HVint i -> Hashtbl.hash i
      | HVstr s -> Hashtbl.hash s
      | HVpair (a, b) -> (a.vhash * 65599) + b.vhash
      | HVset xs -> List.fold_left (fun acc x -> (acc * 131) + x.vhash) 3 xs
      | HVbag xs -> List.fold_left (fun acc x -> (acc * 131) + x.vhash) 5 xs
      | HVlist xs -> List.fold_left (fun acc x -> (acc * 131) + x.vhash) 7 xs
      | HVobj { cls; oid; _ } -> Hashtbl.hash (cls, oid)
      | HVnamed s -> Hashtbl.hash ("named", s)
      | HVhole s -> Hashtbl.hash ("hole", s)

    let matches shape node =
      match shape, node.vshape with
      | HVunit, HVunit -> true
      | HVbool a, HVbool b -> Bool.equal a b
      | HVint a, HVint b -> Int.equal a b
      | HVstr a, HVstr b -> String.equal a b
      | HVpair (a1, b1), HVpair (a2, b2) -> a1 == a2 && b1 == b2
      | HVset xs, HVset ys | HVbag xs, HVbag ys | HVlist xs, HVlist ys ->
        List.length xs = List.length ys && List.for_all2 ( == ) xs ys
      | HVobj a, HVobj b ->
        (* Identity-based, like [Value.compare]: fields are ignored. *)
        String.equal a.cls b.cls && Int.equal a.oid b.oid
      | HVnamed a, HVnamed b -> String.equal a b
      | HVhole a, HVhole b -> String.equal a b
      | ( ( HVunit | HVbool _ | HVint _ | HVstr _ | HVpair _ | HVset _
          | HVbag _ | HVlist _ | HVobj _ | HVnamed _ | HVhole _ ),
          _ ) -> false

    let build ~id shape =
      let vhash = hash shape in
      let mk vterm vsize vhole_free =
        { vshape = shape; vterm; vid = id; vhash; vsize; vhole_free }
      in
      let views xs = List.map (fun x -> x.vterm) xs in
      let sizes xs = List.fold_left (fun n x -> n + x.vsize) 0 xs in
      let ground xs = List.for_all (fun x -> x.vhole_free) xs in
      match shape with
      | HVunit -> mk Value.Unit 1 true
      | HVbool b -> mk (Value.Bool b) 1 true
      | HVint i -> mk (Value.Int i) 1 true
      | HVstr s -> mk (Value.Str s) 1 true
      | HVpair (a, b) ->
        mk (Value.Pair (a.vterm, b.vterm)) (1 + a.vsize + b.vsize)
          (a.vhole_free && b.vhole_free)
      (* Children are replaced by their (Value.equal) representatives, which
         preserves sortedness/dedup of canonical sets and bags, so rebuilding
         with the raw constructor — not [Value.set] — is safe and O(n). *)
      | HVset xs -> mk (Value.Set (views xs)) (1 + sizes xs) (ground xs)
      | HVbag xs -> mk (Value.Bag (views xs)) (1 + sizes xs) (ground xs)
      | HVlist xs -> mk (Value.List (views xs)) (1 + sizes xs) (ground xs)
      | HVobj o -> mk (Value.Obj o) 1 (Value.is_ground (Value.Obj o))
      | HVnamed s -> mk (Value.Named s) 1 true
      | HVhole h -> mk (Value.Hole h) 1 false
  end

  module Pnode = struct
    type shape = pshape
    type t = pnode

    (* Shallow mirror of [hash_pred]. *)
    let hash = function
      | HEq -> 83
      | HLeq -> 89
      | HGt -> 97
      | HIn -> 101
      | HPrimp s -> hash_combine 103 (Hashtbl.hash s)
      | HOplus (q, f) -> hash_combine 107 (hash_combine q.phash f.fhash)
      | HAndp (q, r) -> hash_combine 109 (hash_combine q.phash r.phash)
      | HOrp (q, r) -> hash_combine 113 (hash_combine q.phash r.phash)
      | HInv q -> hash_combine 127 q.phash
      | HConv q -> hash_combine 131 q.phash
      | HKp b -> if b then 137 else 139
      | HCp (q, v) -> hash_combine 149 (hash_combine q.phash v.vhash)
      | HPhole h -> hash_combine 151 (Hashtbl.hash h)

    let matches shape node =
      match shape, node.pshape with
      | HEq, HEq | HLeq, HLeq | HGt, HGt | HIn, HIn -> true
      | HPrimp a, HPrimp b -> String.equal a b
      | HOplus (q1, f1), HOplus (q2, f2) -> q1 == q2 && f1 == f2
      | HAndp (q1, r1), HAndp (q2, r2) | HOrp (q1, r1), HOrp (q2, r2) ->
        q1 == q2 && r1 == r2
      | HInv q1, HInv q2 | HConv q1, HConv q2 -> q1 == q2
      | HKp a, HKp b -> Bool.equal a b
      | HCp (q1, v1), HCp (q2, v2) -> q1 == q2 && v1 == v2
      | HPhole a, HPhole b -> String.equal a b
      | ( ( HEq | HLeq | HGt | HIn | HPrimp _ | HOplus _ | HAndp _ | HOrp _
          | HInv _ | HConv _ | HKp _ | HCp _ | HPhole _ ),
          _ ) -> false

    let build ~id shape =
      let phash = hash shape in
      let mk pterm psize pheads phole_free =
        {
          pshape = shape;
          pterm;
          pid = id;
          phash;
          psize;
          pheads;
          phole_free;
          pcanon = None;
        }
      in
      let own = pshape_bit shape in
      match shape with
      | HEq -> mk Eq 1 own true
      | HLeq -> mk Leq 1 own true
      | HGt -> mk Gt 1 own true
      | HIn -> mk In 1 own true
      | HPrimp s -> mk (Primp s) 1 own true
      | HOplus (q, f) ->
        mk (Oplus (q.pterm, f.fterm)) (1 + q.psize + f.fsize)
          (own lor q.pheads lor f.fheads)
          (q.phole_free && f.fhole_free)
      | HAndp (q, r) ->
        mk (Andp (q.pterm, r.pterm)) (1 + q.psize + r.psize)
          (own lor q.pheads lor r.pheads)
          (q.phole_free && r.phole_free)
      | HOrp (q, r) ->
        mk (Orp (q.pterm, r.pterm)) (1 + q.psize + r.psize)
          (own lor q.pheads lor r.pheads)
          (q.phole_free && r.phole_free)
      | HInv q -> mk (Inv q.pterm) (1 + q.psize) (own lor q.pheads) q.phole_free
      | HConv q ->
        mk (Conv q.pterm) (1 + q.psize) (own lor q.pheads) q.phole_free
      | HKp b -> mk (Kp b) 1 own true
      | HCp (q, v) ->
        mk (Cp (q.pterm, v.vterm)) (1 + q.psize + v.vsize) (own lor q.pheads)
          (q.phole_free && v.vhole_free)
      | HPhole h -> mk (Phole h) 1 0 false
  end

  module Fnode = struct
    type shape = fshape
    type t = fnode

    (* Shallow mirror of [hash_func]. *)
    let hash = function
      | HId -> 3
      | HPi1 -> 5
      | HPi2 -> 7
      | HFlat -> 11
      | HSng -> 13
      | HPrim s -> hash_combine 17 (Hashtbl.hash s)
      | HCompose (a, b) -> hash_combine 19 (hash_combine a.fhash b.fhash)
      | HPairf (a, b) -> hash_combine 23 (hash_combine a.fhash b.fhash)
      | HTimes (a, b) -> hash_combine 29 (hash_combine a.fhash b.fhash)
      | HNest (a, b) -> hash_combine 31 (hash_combine a.fhash b.fhash)
      | HUnnest (a, b) -> hash_combine 37 (hash_combine a.fhash b.fhash)
      | HKf v -> hash_combine 41 v.vhash
      | HCf (a, v) -> hash_combine 43 (hash_combine a.fhash v.vhash)
      | HCon (p, a, b) ->
        hash_combine 47 (hash_combine p.phash (hash_combine a.fhash b.fhash))
      | HArith op -> hash_combine 53 (Hashtbl.hash op)
      | HAgg op -> hash_combine 59 (Hashtbl.hash op)
      | HSetop op -> hash_combine 61 (Hashtbl.hash op)
      | HIterate (p, a) -> hash_combine 67 (hash_combine p.phash a.fhash)
      | HIter (p, a) -> hash_combine 71 (hash_combine p.phash a.fhash)
      | HJoin (p, a) -> hash_combine 73 (hash_combine p.phash a.fhash)
      | HFhole h -> hash_combine 79 (Hashtbl.hash h)

    let matches shape node =
      match shape, node.fshape with
      | HId, HId | HPi1, HPi1 | HPi2, HPi2 | HFlat, HFlat | HSng, HSng -> true
      | HPrim a, HPrim b -> String.equal a b
      | HCompose (a1, b1), HCompose (a2, b2)
      | HPairf (a1, b1), HPairf (a2, b2)
      | HTimes (a1, b1), HTimes (a2, b2)
      | HNest (a1, b1), HNest (a2, b2)
      | HUnnest (a1, b1), HUnnest (a2, b2) -> a1 == a2 && b1 == b2
      | HKf v1, HKf v2 -> v1 == v2
      | HCf (a1, v1), HCf (a2, v2) -> a1 == a2 && v1 == v2
      | HCon (p1, a1, b1), HCon (p2, a2, b2) ->
        p1 == p2 && a1 == a2 && b1 == b2
      | HArith x, HArith y -> x = y
      | HAgg x, HAgg y -> x = y
      | HSetop x, HSetop y -> x = y
      | HIterate (p1, a1), HIterate (p2, a2)
      | HIter (p1, a1), HIter (p2, a2)
      | HJoin (p1, a1), HJoin (p2, a2) -> p1 == p2 && a1 == a2
      | HFhole a, HFhole b -> String.equal a b
      | ( ( HId | HPi1 | HPi2 | HPrim _ | HCompose _ | HPairf _ | HTimes _
          | HKf _ | HCf _ | HCon _ | HArith _ | HAgg _ | HSetop _ | HSng
          | HFlat | HIterate _ | HIter _ | HJoin _ | HNest _ | HUnnest _
          | HFhole _ ),
          _ ) -> false

    let build ~id shape =
      let fhash = hash shape in
      let mk fterm fsize fheads fhole_free =
        {
          fshape = shape;
          fterm;
          fid = id;
          fhash;
          fsize;
          fheads;
          fhole_free;
          fcanon = None;
        }
      in
      let own = fshape_bit shape in
      match shape with
      | HId -> mk Id 1 own true
      | HPi1 -> mk Pi1 1 own true
      | HPi2 -> mk Pi2 1 own true
      | HPrim s -> mk (Prim s) 1 own true
      | HCompose (a, b) ->
        mk (Compose (a.fterm, b.fterm)) (1 + a.fsize + b.fsize)
          (own lor a.fheads lor b.fheads)
          (a.fhole_free && b.fhole_free)
      | HPairf (a, b) ->
        mk (Pairf (a.fterm, b.fterm)) (1 + a.fsize + b.fsize)
          (own lor a.fheads lor b.fheads)
          (a.fhole_free && b.fhole_free)
      | HTimes (a, b) ->
        mk (Times (a.fterm, b.fterm)) (1 + a.fsize + b.fsize)
          (own lor a.fheads lor b.fheads)
          (a.fhole_free && b.fhole_free)
      | HKf v -> mk (Kf v.vterm) (1 + v.vsize) own v.vhole_free
      | HCf (a, v) ->
        mk (Cf (a.fterm, v.vterm)) (1 + a.fsize + v.vsize) (own lor a.fheads)
          (a.fhole_free && v.vhole_free)
      | HCon (p, a, b) ->
        mk (Con (p.pterm, a.fterm, b.fterm)) (1 + p.psize + a.fsize + b.fsize)
          (own lor p.pheads lor a.fheads lor b.fheads)
          (p.phole_free && a.fhole_free && b.fhole_free)
      | HArith op -> mk (Arith op) 1 own true
      | HAgg op -> mk (Agg op) 1 own true
      | HSetop op -> mk (Setop op) 1 own true
      | HSng -> mk Sng 1 own true
      | HFlat -> mk Flat 1 own true
      | HIterate (p, a) ->
        mk (Iterate (p.pterm, a.fterm)) (1 + p.psize + a.fsize)
          (own lor p.pheads lor a.fheads)
          (p.phole_free && a.fhole_free)
      | HIter (p, a) ->
        mk (Iter (p.pterm, a.fterm)) (1 + p.psize + a.fsize)
          (own lor p.pheads lor a.fheads)
          (p.phole_free && a.fhole_free)
      | HJoin (p, a) ->
        mk (Join (p.pterm, a.fterm)) (1 + p.psize + a.fsize)
          (own lor p.pheads lor a.fheads)
          (p.phole_free && a.fhole_free)
      | HNest (a, b) ->
        mk (Nest (a.fterm, b.fterm)) (1 + a.fsize + b.fsize)
          (own lor a.fheads lor b.fheads)
          (a.fhole_free && b.fhole_free)
      | HUnnest (a, b) ->
        mk (Unnest (a.fterm, b.fterm)) (1 + a.fsize + b.fsize)
          (own lor a.fheads lor b.fheads)
          (a.fhole_free && b.fhole_free)
      | HFhole h -> mk (Fhole h) 1 0 false
  end

  module Ftable = Hashcons.Make (Fnode)
  module Ptable = Hashcons.Make (Pnode)
  module Vtable = Hashcons.Make (Vnode)

  (* One process-global table per sort: sharing must span rules, states and
     caches, and ids must stay unique per sort. *)
  let ftable = Ftable.create ()
  let ptable = Ptable.create ()
  let vtable = Vtable.create ()

  let intern_stats () =
    Hashcons.merge_stats (Ftable.stats ftable)
      (Hashcons.merge_stats (Ptable.stats ptable) (Vtable.stats vtable))

  let intern_counters () =
    Hashcons.merge_stats (Ftable.counters ftable)
      (Hashcons.merge_stats (Ptable.counters ptable) (Vtable.counters vtable))

  let fmk s = Ftable.intern ftable s
  let pmk s = Ptable.intern ptable s
  let vmk s = Vtable.intern vtable s

  (* Smart constructors, one per func/pred shape; leaves are preinterned
     constants.  ([inp] because [in] is a keyword.) *)
  let id = fmk HId
  let pi1 = fmk HPi1
  let pi2 = fmk HPi2
  let sng = fmk HSng
  let flat = fmk HFlat
  let prim s = fmk (HPrim s)
  let compose a b = fmk (HCompose (a, b))
  let pairf a b = fmk (HPairf (a, b))
  let times a b = fmk (HTimes (a, b))
  let kf v = fmk (HKf v)
  let cf a v = fmk (HCf (a, v))
  let con p a b = fmk (HCon (p, a, b))
  let arith op = fmk (HArith op)
  let agg op = fmk (HAgg op)
  let setop op = fmk (HSetop op)
  let iterate p a = fmk (HIterate (p, a))
  let iter p a = fmk (HIter (p, a))
  let join p a = fmk (HJoin (p, a))
  let nest a b = fmk (HNest (a, b))
  let unnest a b = fmk (HUnnest (a, b))
  let fhole h = fmk (HFhole h)
  let eq = pmk HEq
  let leq = pmk HLeq
  let gt = pmk HGt
  let inp = pmk HIn
  let primp s = pmk (HPrimp s)
  let oplus p f = pmk (HOplus (p, f))
  let andp p q = pmk (HAndp (p, q))
  let orp p q = pmk (HOrp (p, q))
  let inv p = pmk (HInv p)
  let conv p = pmk (HConv p)
  let kp b = pmk (HKp b)
  let cp p v = pmk (HCp (p, v))
  let phole h = pmk (HPhole h)

  let vpair a b = vmk (HVpair (a, b))

  let rec of_value v =
    match v with
    | Value.Unit -> vmk HVunit
    | Value.Bool b -> vmk (HVbool b)
    | Value.Int i -> vmk (HVint i)
    | Value.Str s -> vmk (HVstr s)
    | Value.Pair (a, b) -> vmk (HVpair (of_value a, of_value b))
    | Value.Set xs -> vmk (HVset (List.map of_value xs))
    | Value.Bag xs -> vmk (HVbag (List.map of_value xs))
    | Value.List xs -> vmk (HVlist (List.map of_value xs))
    | Value.Obj o -> vmk (HVobj o)
    | Value.Named s -> vmk (HVnamed s)
    | Value.Hole h -> vmk (HVhole h)

  let rec of_func f =
    match f with
    | Id -> id
    | Pi1 -> pi1
    | Pi2 -> pi2
    | Sng -> sng
    | Flat -> flat
    | Prim s -> prim s
    | Compose (a, b) -> compose (of_func a) (of_func b)
    | Pairf (a, b) -> pairf (of_func a) (of_func b)
    | Times (a, b) -> times (of_func a) (of_func b)
    | Kf v -> kf (of_value v)
    | Cf (a, v) -> cf (of_func a) (of_value v)
    | Con (p, a, b) -> con (of_pred p) (of_func a) (of_func b)
    | Arith op -> arith op
    | Agg op -> agg op
    | Setop op -> setop op
    | Iterate (p, a) -> iterate (of_pred p) (of_func a)
    | Iter (p, a) -> iter (of_pred p) (of_func a)
    | Join (p, a) -> join (of_pred p) (of_func a)
    | Nest (a, b) -> nest (of_func a) (of_func b)
    | Unnest (a, b) -> unnest (of_func a) (of_func b)
    | Fhole h -> fhole h

  and of_pred p =
    match p with
    | Eq -> eq
    | Leq -> leq
    | Gt -> gt
    | In -> inp
    | Primp s -> primp s
    | Oplus (q, f) -> oplus (of_pred q) (of_func f)
    | Andp (q, r) -> andp (of_pred q) (of_pred r)
    | Orp (q, r) -> orp (of_pred q) (of_pred r)
    | Inv q -> inv (of_pred q)
    | Conv q -> conv (of_pred q)
    | Kp b -> kp b
    | Cp (q, v) -> cp (of_pred q) (of_value v)
    | Phole h -> phole h

  let to_func f = f.fterm
  let to_pred p = p.pterm
  let to_value v = v.vterm

  (* Chains on nodes, mirroring the plain [chain]/[unchain]. *)
  let rec unchain f =
    match f.fshape with
    | HCompose (a, b) -> unchain a @ unchain b
    | _ -> [ f ]

  let chain = function
    | [] -> id
    | f :: fs -> List.fold_left compose f fs

  (* Memoized mirror of [reassoc_func]/[reassoc_pred].  The result is itself
     canonical, so its own memo is seeded too. *)
  let rec canon f =
    match f.fcanon with
    | Some c -> c
    | None ->
      let c =
        match f.fshape with
        | HCompose _ -> chain (List.map canon (unchain f))
        | HId | HPi1 | HPi2 | HPrim _ | HFlat | HSng | HArith _ | HAgg _
        | HSetop _ | HKf _ | HFhole _ -> f
        | HPairf (a, b) -> pairf (canon a) (canon b)
        | HTimes (a, b) -> times (canon a) (canon b)
        | HNest (a, b) -> nest (canon a) (canon b)
        | HUnnest (a, b) -> unnest (canon a) (canon b)
        | HCf (a, v) -> cf (canon a) v
        | HCon (p, a, b) -> con (canon_pred p) (canon a) (canon b)
        | HIterate (p, a) -> iterate (canon_pred p) (canon a)
        | HIter (p, a) -> iter (canon_pred p) (canon a)
        | HJoin (p, a) -> join (canon_pred p) (canon a)
      in
      c.fcanon <- Some c;
      f.fcanon <- Some c;
      c

  and canon_pred p =
    match p.pcanon with
    | Some c -> c
    | None ->
      let c =
        match p.pshape with
        | HEq | HLeq | HGt | HIn | HPrimp _ | HKp _ | HPhole _ -> p
        | HOplus (q, f) -> oplus (canon_pred q) (canon f)
        | HAndp (q, r) -> andp (canon_pred q) (canon_pred r)
        | HOrp (q, r) -> orp (canon_pred q) (canon_pred r)
        | HInv q -> inv (canon_pred q)
        | HConv q -> conv (canon_pred q)
        | HCp (q, v) -> cp (canon_pred q) v
      in
      c.pcanon <- Some c;
      p.pcanon <- Some c;
      c

  (* Interned queries and their dedup keys: two queries share a key iff they
     are [Canonical.equal] — i.e. equal modulo ∘-associativity with
     [Value.equal] arguments — so id-pair dedup partitions states exactly
     like a [Canonical] table. *)
  type hquery = { hbody : fnode; harg : vnode }

  let of_query q = { hbody = of_func q.body; harg = of_value q.arg }
  let to_query hq = { body = hq.hbody.fterm; arg = hq.harg.vterm }
  let query_key hq = ((canon hq.hbody).fid, hq.harg.vid)

  module Qtable = Hashtbl.Make (struct
    type t = int * int

    let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
    let hash (a, b) = ((a * 0x01000193) lxor b) land max_int
  end)
end
