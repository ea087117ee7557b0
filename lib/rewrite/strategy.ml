(* Traversal: applying a rewrite throughout an interned term.

   A strategy is a partial transformation on targets (functions or
   predicates); [None] means "did not apply".  [one_child] descends
   through every syntactic position where a function or predicate occurs:
   composition, pair formers, con, iterate/iter/join/nest/unnest, ⊕, &, |,
   inversions and curried forms — left to right, predicate before function
   children, never into Kf/Cf/Cp values — and rebuilds through the smart
   constructors, so untouched siblings stay shared. *)

open Kola.Term

type target = F of Hc.fnode | P of Hc.pnode
type t = target -> target option

let as_f = function F f -> Some f | P _ -> None
let as_p = function P p -> Some p | F _ -> None

(* A rule applied at the root of the target. *)
let of_rule ?schema (r : Rule.t) : t = function
  | F f -> Option.map (fun f -> F f) (Rule.apply_func ?schema r f)
  | P p -> Option.map (fun p -> P p) (Rule.apply_pred ?schema r p)

let choice (a : t) (b : t) : t =
 fun tgt ->
  match a tgt with
  | Some r -> Some r
  | None -> b tgt

(* Try [s] on each child position (left to right); rebuild on the first
   success. *)
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

(* Apply [s] once, at the outermost (leftmost) position where it matches.
   A rule whose pattern has a fixed head can only fire inside a subtree
   containing that head, and interned nodes carry the occurrence mask of
   their whole subtree as a field — so with [mask] covering every rule [s]
   fires, dead subtrees are skipped in O(1) instead of walked, and the
   matching positions visited (and their order) are unchanged. *)
let once_topdown ?(mask = 0) (s : t) : t =
  let rec go tgt =
    let heads = match tgt with F f -> f.Hc.fheads | P p -> p.Hc.pheads in
    if mask <> 0 && heads land mask = 0 then None
    else choice s (one_child go) tgt
  in
  go

let apply_func (s : t) f = Option.bind (s (F f)) as_f
