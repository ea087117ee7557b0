(* Strategy combinators for applying rules throughout a term.

   A strategy is a partial transformation on targets (functions or
   predicates).  [None] means "did not apply" — the identity on failure is
   supplied by [attempt].  Strategies descend through every syntactic
   position where a function or predicate occurs: composition, pair formers,
   con, iterate/iter/join/nest/unnest, ⊕, &, |, inversions and curried
   forms. *)

open Kola.Term

type target = F of func | P of pred
type t = target -> target option

let as_f = function F f -> Some f | P _ -> None
let as_p = function P p -> Some p | F _ -> None

let of_fun_rewrite (rw : func -> func option) : t = function
  | F f -> Option.map (fun f -> F f) (rw f)
  | P _ -> None

let of_pred_rewrite (rw : pred -> pred option) : t = function
  | P p -> Option.map (fun p -> P p) (rw p)
  | F _ -> None

(* A rule applied at the root of the target. *)
let of_rule ?schema (r : Rule.t) : t = function
  | F f -> Option.map (fun f -> F f) (Rule.apply_func ?schema r f)
  | P p -> Option.map (fun p -> P p) (Rule.apply_pred ?schema r p)

let fail : t = fun _ -> None
let id_strategy : t = fun tgt -> Some tgt

let seq (a : t) (b : t) : t = fun tgt -> Option.bind (a tgt) b

let choice (a : t) (b : t) : t =
 fun tgt ->
  match a tgt with
  | Some r -> Some r
  | None -> b tgt

let choice_all (ss : t list) : t = List.fold_left choice fail ss

(* Succeeds always; identity when the inner strategy fails. *)
let attempt (s : t) : t = fun tgt -> Some (Option.value ~default:tgt (s tgt))

(* Apply [s] as long as it applies; succeeds if it applied at least once.
   [fuel] bounds runaway rule sets. *)
let repeat ?(fuel = 10_000) (s : t) : t =
 fun tgt ->
  let rec go n tgt applied =
    if n = 0 then if applied then Some tgt else None
    else
      match s tgt with
      | Some tgt' -> go (n - 1) tgt' true
      | None -> if applied then Some tgt else None
  in
  go fuel tgt false

(* Try [s] on each child position (left to right); rebuild on the first
   success. *)
let one_child (s : t) : t =
  let sf f = Option.bind (s (F f)) as_f in
  let sp p = Option.bind (s (P p)) as_p in
  let in_func f =
    match f with
    | Id | Pi1 | Pi2 | Prim _ | Flat | Sng | Arith _ | Agg _ | Setop _ | Kf _
    | Fhole _ -> None
    | Compose (a, b) -> (
      match sf a with
      | Some a' -> Some (Compose (a', b))
      | None -> Option.map (fun b' -> Compose (a, b')) (sf b))
    | Pairf (a, b) -> (
      match sf a with
      | Some a' -> Some (Pairf (a', b))
      | None -> Option.map (fun b' -> Pairf (a, b')) (sf b))
    | Times (a, b) -> (
      match sf a with
      | Some a' -> Some (Times (a', b))
      | None -> Option.map (fun b' -> Times (a, b')) (sf b))
    | Nest (a, b) -> (
      match sf a with
      | Some a' -> Some (Nest (a', b))
      | None -> Option.map (fun b' -> Nest (a, b')) (sf b))
    | Unnest (a, b) -> (
      match sf a with
      | Some a' -> Some (Unnest (a', b))
      | None -> Option.map (fun b' -> Unnest (a, b')) (sf b))
    | Cf (a, v) -> Option.map (fun a' -> Cf (a', v)) (sf a)
    | Con (p, a, b) -> (
      match sp p with
      | Some p' -> Some (Con (p', a, b))
      | None -> (
        match sf a with
        | Some a' -> Some (Con (p, a', b))
        | None -> Option.map (fun b' -> Con (p, a, b')) (sf b)))
    | Iterate (p, a) -> (
      match sp p with
      | Some p' -> Some (Iterate (p', a))
      | None -> Option.map (fun a' -> Iterate (p, a')) (sf a))
    | Iter (p, a) -> (
      match sp p with
      | Some p' -> Some (Iter (p', a))
      | None -> Option.map (fun a' -> Iter (p, a')) (sf a))
    | Join (p, a) -> (
      match sp p with
      | Some p' -> Some (Join (p', a))
      | None -> Option.map (fun a' -> Join (p, a')) (sf a))
  in
  let in_pred p =
    match p with
    | Eq | Leq | Gt | In | Primp _ | Kp _ | Phole _ -> None
    | Oplus (q, f) -> (
      match sp q with
      | Some q' -> Some (Oplus (q', f))
      | None -> Option.map (fun f' -> Oplus (q, f')) (sf f))
    | Andp (q, r) -> (
      match sp q with
      | Some q' -> Some (Andp (q', r))
      | None -> Option.map (fun r' -> Andp (q, r')) (sp r))
    | Orp (q, r) -> (
      match sp q with
      | Some q' -> Some (Orp (q', r))
      | None -> Option.map (fun r' -> Orp (q, r')) (sp r))
    | Inv q -> Option.map (fun q' -> Inv q') (sp q)
    | Conv q -> Option.map (fun q' -> Conv q') (sp q)
    | Cp (q, v) -> Option.map (fun q' -> Cp (q', v)) (sp q)
  in
  function
  | F f -> Option.map (fun f -> F f) (in_func f)
  | P p -> Option.map (fun p -> P p) (in_pred p)

(* Apply [s] once, at the outermost (leftmost) position where it matches. *)
let rec once_topdown (s : t) : t =
 fun tgt -> choice s (one_child (once_topdown s)) tgt

(* Apply [s] once, at the innermost position where it matches. *)
let rec once_bottomup (s : t) : t =
 fun tgt -> choice (one_child (once_bottomup s)) s tgt

(* Exhaustively apply [s] anywhere until no position matches (leftmost-
   outermost order).  This is the engine's normalization loop. *)
let fixpoint ?fuel (s : t) : t = repeat ?fuel (once_topdown s)

(* Run to normal form; always succeeds. *)
let normalize ?fuel (s : t) : t = attempt (fixpoint ?fuel s)

let apply_func (s : t) f = Option.bind (s (F f)) as_f
let apply_pred (s : t) p = Option.bind (s (P p)) as_p

(* Strategies over hash-consed nodes, for the search's successor
   enumeration.  [one_child] mirrors the plain traversal
   position-for-position (left to right, predicate before function
   children, no descent into Kf/Cf/Cp values), rebuilding through the
   smart constructors — so an interned [once_topdown] visits exactly the
   positions the plain one does, in the same order. *)
module H = struct
  type target = F of Hc.fnode | P of Hc.pnode
  type t = target -> target option

  let as_f = function F f -> Some f | P _ -> None
  let as_p = function P p -> Some p | F _ -> None

  let of_rule ?schema (r : Rule.t) : t = function
    | F f -> Option.map (fun f -> F f) (Rule.apply_hfunc ?schema r f)
    | P p -> Option.map (fun p -> P p) (Rule.apply_hpred ?schema r p)

  let choice (a : t) (b : t) : t =
   fun tgt ->
    match a tgt with
    | Some r -> Some r
    | None -> b tgt

  let one_child (s : t) : t =
    let sf f = Option.bind (s (F f)) as_f in
    let sp p = Option.bind (s (P p)) as_p in
    let in_func f =
      match f.Hc.fshape with
      | Hc.HId | Hc.HPi1 | Hc.HPi2 | Hc.HPrim _ | Hc.HFlat | Hc.HSng
      | Hc.HArith _ | Hc.HAgg _ | Hc.HSetop _ | Hc.HKf _ | Hc.HFhole _ ->
        None
      | Hc.HCompose (a, b) -> (
        match sf a with
        | Some a' -> Some (Hc.compose a' b)
        | None -> Option.map (fun b' -> Hc.compose a b') (sf b))
      | Hc.HPairf (a, b) -> (
        match sf a with
        | Some a' -> Some (Hc.pairf a' b)
        | None -> Option.map (fun b' -> Hc.pairf a b') (sf b))
      | Hc.HTimes (a, b) -> (
        match sf a with
        | Some a' -> Some (Hc.times a' b)
        | None -> Option.map (fun b' -> Hc.times a b') (sf b))
      | Hc.HNest (a, b) -> (
        match sf a with
        | Some a' -> Some (Hc.nest a' b)
        | None -> Option.map (fun b' -> Hc.nest a b') (sf b))
      | Hc.HUnnest (a, b) -> (
        match sf a with
        | Some a' -> Some (Hc.unnest a' b)
        | None -> Option.map (fun b' -> Hc.unnest a b') (sf b))
      | Hc.HCf (a, v) -> Option.map (fun a' -> Hc.cf a' v) (sf a)
      | Hc.HCon (p, a, b) -> (
        match sp p with
        | Some p' -> Some (Hc.con p' a b)
        | None -> (
          match sf a with
          | Some a' -> Some (Hc.con p a' b)
          | None -> Option.map (fun b' -> Hc.con p a b') (sf b)))
      | Hc.HIterate (p, a) -> (
        match sp p with
        | Some p' -> Some (Hc.iterate p' a)
        | None -> Option.map (fun a' -> Hc.iterate p a') (sf a))
      | Hc.HIter (p, a) -> (
        match sp p with
        | Some p' -> Some (Hc.iter p' a)
        | None -> Option.map (fun a' -> Hc.iter p a') (sf a))
      | Hc.HJoin (p, a) -> (
        match sp p with
        | Some p' -> Some (Hc.join p' a)
        | None -> Option.map (fun a' -> Hc.join p a') (sf a))
    in
    let in_pred p =
      match p.Hc.pshape with
      | Hc.HEq | Hc.HLeq | Hc.HGt | Hc.HIn | Hc.HPrimp _ | Hc.HKp _
      | Hc.HPhole _ -> None
      | Hc.HOplus (q, f) -> (
        match sp q with
        | Some q' -> Some (Hc.oplus q' f)
        | None -> Option.map (fun f' -> Hc.oplus q f') (sf f))
      | Hc.HAndp (q, r) -> (
        match sp q with
        | Some q' -> Some (Hc.andp q' r)
        | None -> Option.map (fun r' -> Hc.andp q r') (sp r))
      | Hc.HOrp (q, r) -> (
        match sp q with
        | Some q' -> Some (Hc.orp q' r)
        | None -> Option.map (fun r' -> Hc.orp q r') (sp r))
      | Hc.HInv q -> Option.map (fun q' -> Hc.inv q') (sp q)
      | Hc.HConv q -> Option.map (fun q' -> Hc.conv q') (sp q)
      | Hc.HCp (q, v) -> Option.map (fun q' -> Hc.cp q' v) (sp q)
    in
    function
    | F f -> Option.map (fun f -> F f) (in_func f)
    | P p -> Option.map (fun p -> P p) (in_pred p)

  let rec once_topdown (s : t) : t =
   fun tgt -> choice s (one_child (once_topdown s)) tgt

  (* [once_topdown] pruned through the per-node head bitmasks: a rule
     whose pattern has a fixed head ({!Index.rule_head_mask}) can only
     fire inside a subtree containing that head, and interned nodes carry
     the occurrence mask of their whole subtree as a field — so dead
     subtrees are skipped in O(1) instead of walked.  Visits the same
     matching positions in the same order as [once_topdown]: a pruned
     subtree contains no position where the rule applies. *)
  let once_topdown_masked ~mask (s : t) : t =
    if mask = 0 then once_topdown s
    else
      let rec go tgt =
        let heads =
          match tgt with F f -> f.Hc.fheads | P p -> p.Hc.pheads
        in
        if heads land mask = 0 then None else choice s (one_child go) tgt
      in
      go

  let apply_func (s : t) f = Option.bind (s (F f)) as_f
end
