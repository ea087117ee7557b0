(* Head-symbol rule indexing.

   KOLA's variable-free patterns make rule applicability a pure structural
   match, so a rule can only fire at a node whose root constructor equals
   its pattern's root constructor (composition chains are matched modulo
   associativity, but still only at [Compose] nodes).  The index buckets
   every rule by that head symbol once, and the engine then dispatches each
   node to its bucket instead of attempting the whole catalog — the paper's
   "matching is linear in the pattern size" property, extended to "dispatch
   is constant in the catalog size".

   Rules whose pattern is rooted at a hole match anything of their sort and
   live in a wildcard bucket that every lookup includes.  Query rules are
   only ever tried at the query level and are kept aside unbucketed.
   Candidate lists preserve catalog order, so an indexed engine fires
   exactly the rule the naive engine would. *)

open Kola.Term

type head =
  | HId
  | HPi1
  | HPi2
  | HPrim
  | HCompose
  | HPairf
  | HTimes
  | HKf
  | HCf
  | HCon
  | HArith
  | HAgg
  | HSetop
  | HSng
  | HFlat
  | HIterate
  | HIter
  | HJoin
  | HNest
  | HUnnest
  | HEq
  | HLeq
  | HGt
  | HIn
  | HPrimp
  | HOplus
  | HAndp
  | HOrp
  | HInv
  | HConv
  | HKp
  | HCp

let head_of_func = function
  | Id -> Some HId
  | Pi1 -> Some HPi1
  | Pi2 -> Some HPi2
  | Prim _ -> Some HPrim
  | Compose _ -> Some HCompose
  | Pairf _ -> Some HPairf
  | Times _ -> Some HTimes
  | Kf _ -> Some HKf
  | Cf _ -> Some HCf
  | Con _ -> Some HCon
  | Arith _ -> Some HArith
  | Agg _ -> Some HAgg
  | Setop _ -> Some HSetop
  | Sng -> Some HSng
  | Flat -> Some HFlat
  | Iterate _ -> Some HIterate
  | Iter _ -> Some HIter
  | Join _ -> Some HJoin
  | Nest _ -> Some HNest
  | Unnest _ -> Some HUnnest
  | Fhole _ -> None

let head_of_pred = function
  | Eq -> Some HEq
  | Leq -> Some HLeq
  | Gt -> Some HGt
  | In -> Some HIn
  | Primp _ -> Some HPrimp
  | Oplus _ -> Some HOplus
  | Andp _ -> Some HAndp
  | Orp _ -> Some HOrp
  | Inv _ -> Some HInv
  | Conv _ -> Some HConv
  | Kp _ -> Some HKp
  | Cp _ -> Some HCp
  | Phole _ -> None

(* [head = None] marks a hole-rooted (wildcard) pattern. *)
type entry = { head : head option; rule : Rule.t }

type t = {
  fun_entries : entry list;  (** function rules, catalog order *)
  pred_entries : entry list;  (** predicate rules, catalog order *)
  query_rules : Rule.t list;
  fun_cache : (head, Rule.t list) Hashtbl.t;
  pred_cache : (head, Rule.t list) Hashtbl.t;
}

let build rules =
  let fun_entries, pred_entries, query_rules =
    List.fold_left
      (fun (fs, ps, qs) r ->
        match r.Rule.body with
        | Rule.Fun_rule (lhs, _) ->
          ({ head = head_of_func lhs; rule = r } :: fs, ps, qs)
        | Rule.Pred_rule (lhs, _) ->
          (fs, { head = head_of_pred lhs; rule = r } :: ps, qs)
        | Rule.Query_rule _ -> (fs, ps, r :: qs))
      ([], [], []) rules
  in
  {
    fun_entries = List.rev fun_entries;
    pred_entries = List.rev pred_entries;
    query_rules = List.rev query_rules;
    fun_cache = Hashtbl.create 16;
    pred_cache = Hashtbl.create 16;
  }

let query_rules t = t.query_rules

(* Bucket lookup, memoized per head: rules whose pattern head is [h] plus
   the wildcards, in catalog order. *)
let bucket cache entries h =
  match Hashtbl.find_opt cache h with
  | Some rs -> rs
  | None ->
    let rs =
      List.filter_map
        (fun e ->
          match e.head with
          | None -> Some e.rule
          | Some h' -> if h' = h then Some e.rule else None)
        entries
    in
    Hashtbl.add cache h rs;
    rs

let all_of entries = List.map (fun e -> e.rule) entries

let candidates_func t f =
  match head_of_func f with
  | Some h -> bucket t.fun_cache t.fun_entries h
  | None -> all_of t.fun_entries

let candidates_pred t p =
  match head_of_pred p with
  | Some h -> bucket t.pred_cache t.pred_entries h
  | None -> all_of t.pred_entries

(* ------------------------------------------------------------------ *)
(* Interned pruning: hash-consed nodes carry the set of heads occurring
   anywhere beneath them as a precomputed bitmask ([fheads]/[pheads]), so
   "can this rule fire anywhere in this subtree" is a single [land]. *)

(* Bit positions must agree with [Kola.Term.Hc.fshape_bit]/[pshape_bit]
   (func heads at bits 0-19 in declaration order, pred heads at 20-31);
   test_hashcons pins the correspondence against a plain head walk. *)
let head_bit = function
  | HId -> 1 lsl 0
  | HPi1 -> 1 lsl 1
  | HPi2 -> 1 lsl 2
  | HPrim -> 1 lsl 3
  | HCompose -> 1 lsl 4
  | HPairf -> 1 lsl 5
  | HTimes -> 1 lsl 6
  | HKf -> 1 lsl 7
  | HCf -> 1 lsl 8
  | HCon -> 1 lsl 9
  | HArith -> 1 lsl 10
  | HAgg -> 1 lsl 11
  | HSetop -> 1 lsl 12
  | HSng -> 1 lsl 13
  | HFlat -> 1 lsl 14
  | HIterate -> 1 lsl 15
  | HIter -> 1 lsl 16
  | HJoin -> 1 lsl 17
  | HNest -> 1 lsl 18
  | HUnnest -> 1 lsl 19
  | HEq -> 1 lsl 20
  | HLeq -> 1 lsl 21
  | HGt -> 1 lsl 22
  | HIn -> 1 lsl 23
  | HPrimp -> 1 lsl 24
  | HOplus -> 1 lsl 25
  | HAndp -> 1 lsl 26
  | HOrp -> 1 lsl 27
  | HInv -> 1 lsl 28
  | HConv -> 1 lsl 29
  | HKp -> 1 lsl 30
  | HCp -> 1 lsl 31

(* The head bit a subtree must contain for [r] to fire anywhere inside
   it; [0] when the pattern has no fixed head (every subtree remains a
   candidate). *)
let rule_head_mask (r : Rule.t) =
  match r.Rule.body with
  | Rule.Query_rule _ -> 0
  | Rule.Fun_rule (lhs, _) -> (
    match head_of_func lhs with None -> 0 | Some h -> head_bit h)
  | Rule.Pred_rule (lhs, _) -> (
    match head_of_pred lhs with None -> 0 | Some h -> head_bit h)

(* Can [r] possibly fire somewhere in a term whose head bitmask (a state
   body's [fheads]) is [mask]?  Query rules and wildcard patterns always
   may; otherwise the pattern head must occur. *)
let mask_may_fire (mask : int) (r : Rule.t) =
  let m = rule_head_mask r in
  m = 0 || mask land m <> 0
