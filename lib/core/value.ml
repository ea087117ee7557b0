(* Values of the KOLA / AQUA object model.

   Sets are kept in canonical form (sorted, deduplicated) so that structural
   equality coincides with set equality.  Objects carry a class name and an
   object identifier; object equality is identity-based ([cls], [oid]), as in
   the object-oriented data models the paper targets.  [Named] denotes a
   top-level database collection (e.g. the paper's P and V); it is resolved
   against a database environment at evaluation time, which keeps printed
   terms small ([Kf(P)] rather than an inlined extent). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | Set of t list
  | Bag of t list
  | List of t list
  | Obj of obj
  | Named of string
  | Hole of string  (** metavariable; only valid inside rule patterns *)

and obj = { cls : string; oid : int; fields : (string * t) list }

exception Not_ground of string

let rec compare a b =
  match a, b with
  | Unit, Unit -> 0
  | Unit, _ -> -1
  | _, Unit -> 1
  | Bool x, Bool y -> Stdlib.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str x, Str y -> Stdlib.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | Set xs, Set ys -> compare_list xs ys
  | Set _, _ -> -1
  | _, Set _ -> 1
  | Bag xs, Bag ys -> compare_list xs ys
  | Bag _, _ -> -1
  | _, Bag _ -> 1
  | List xs, List ys -> compare_list xs ys
  | List _, _ -> -1
  | _, List _ -> 1
  | Obj x, Obj y ->
    let c = String.compare x.cls y.cls in
    if c <> 0 then c else Int.compare x.oid y.oid
  | Obj _, _ -> -1
  | _, Obj _ -> 1
  | Named x, Named y -> String.compare x y
  | Named _, _ -> -1
  | _, Named _ -> 1
  | Hole x, Hole y -> String.compare x y

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

let equal a b = compare a b = 0

let rec deep_equal a b =
  match a, b with
  | Obj x, Obj y ->
    String.equal x.cls y.cls && x.oid = y.oid
    && List.equal
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && deep_equal v1 v2)
         x.fields y.fields
  | Pair (a1, b1), Pair (a2, b2) -> deep_equal a1 a2 && deep_equal b1 b2
  | Set xs, Set ys | Bag xs, Bag ys | List xs, List ys ->
    List.equal deep_equal xs ys
  | _ -> equal a b

(* Hashing folds object identity, mirroring [compare]. *)
let rec hash v =
  match v with
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Str s -> Hashtbl.hash s
  | Pair (a, b) -> (hash a * 65599) + hash b
  | Set xs -> List.fold_left (fun acc x -> (acc * 131) + hash x) 3 xs
  | Bag xs -> List.fold_left (fun acc x -> (acc * 131) + hash x) 5 xs
  | List xs -> List.fold_left (fun acc x -> (acc * 131) + hash x) 7 xs
  | Obj { cls; oid; _ } -> Hashtbl.hash (cls, oid)
  | Named s -> Hashtbl.hash ("named", s)
  | Hole s -> Hashtbl.hash ("hole", s)

(* A hash of the first [depth] levels, and of at most four elements of
   each collection: bounded work however large the value, and consistent
   with [equal] (objects hash by oid).  Equal prefixes collide, and
   [equal] settles the rest. *)
let rec shallow_hash depth v =
  match v with
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> i
  | Str s | Named s | Hole s -> Hashtbl.hash s
  | Obj o -> (o.oid * 65599) + 41
  | Pair (a, b) ->
    if depth = 0 then 43
    else (shallow_hash (depth - 1) a * 65599) + shallow_hash (depth - 1) b
  | Set xs -> elements_hash depth 3 xs
  | Bag xs -> elements_hash depth 5 xs
  | List xs -> elements_hash depth 7 xs

and elements_hash depth seed xs =
  if depth = 0 then seed
  else
    let rec go n acc = function
      | x :: rest when n > 0 -> go (n - 1) ((acc * 131) + shallow_hash (depth - 1) x) rest
      | _ -> acc
    in
    go 4 seed xs

(* Smart constructor keeping sets canonical. *)
let set elems = Set (List.sort_uniq compare elems)
let bag elems = Bag (List.sort compare elems)
let list elems = List elems
let pair a b = Pair (a, b)
let int i = Int i
let str s = Str s
let bool b = Bool b

let obj ~cls ~oid fields = Obj { cls; oid; fields }

(* [String.equal] rather than [List.assoc_opt]'s polymorphic compare:
   attribute reads are the hottest lookup in every evaluator. *)
let rec assoc name = function
  | [] -> None
  | (k, x) :: rest -> if String.equal k name then Some x else assoc name rest

let field name v = match v with Obj o -> assoc name o.fields | _ -> None

let set_elements = function
  | Set xs -> Some xs
  | _ -> None

let is_ground v =
  let rec go = function
    | Hole _ -> false
    | Unit | Bool _ | Int _ | Str _ | Named _ -> true
    | Pair (a, b) -> go a && go b
    | Set xs | Bag xs | List xs -> List.for_all go xs
    | Obj o -> List.for_all (fun (_, x) -> go x) o.fields
  in
  go v

let rec size = function
  | Unit | Bool _ | Int _ | Str _ | Named _ | Hole _ -> 1
  | Pair (a, b) -> 1 + size a + size b
  | Set xs | Bag xs | List xs -> 1 + List.fold_left (fun n x -> n + size x) 0 xs
  | Obj _ -> 1

(* [v] showing at most [!budget] collection elements in all: once the
   budget is spent, each collection ends with the count it left out. *)
let rec pp_within budget ppf v =
  let go = pp_within budget in
  match v with
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "[@[%a,@ %a@]]" go a go b
  | Set xs -> Fmt.pf ppf "{@[%a@]}" (elements budget) xs
  | Bag xs -> Fmt.pf ppf "{|@[%a@]|}" (elements budget) xs
  | List xs -> Fmt.pf ppf "<@[%a@]>" (elements budget) xs
  | Obj { cls; oid; _ } -> Fmt.pf ppf "%s#%d" cls oid
  | Named s -> Fmt.string ppf s
  | Hole s -> Fmt.pf ppf "?%s" s

and elements budget ppf xs =
  let rec from i = function
    | [] -> ()
    | rest when !budget = 0 ->
      if i > 0 then Fmt.comma ppf ();
      Fmt.pf ppf "... (%d more)" (List.length rest)
    | x :: rest ->
      if i > 0 then Fmt.comma ppf ();
      decr budget;
      pp_within budget ppf x;
      from (i + 1) rest
  in
  from 0 xs

let pp ppf v = pp_within (ref max_int) ppf v
let pp_brief ppf v = pp_within (ref 16) ppf v

let to_string v = Fmt.str "%a" pp v
