(* Substitutions binding pattern holes to interned ground terms.

   A binding environment maps function holes to functions, predicate holes
   to predicates and value holes to values, all hash-consed (see
   {!Kola.Term.Hc}), so the rebind consistency check is physical equality
   and instantiation short-circuits on the [*hole_free] bit: a pattern
   subtree without holes *is* its own instantiation.  Rebuilds go through
   the smart constructors and return the input node when no child
   changed, so rewriting shares every untouched subterm with the input. *)

open Kola
open Kola.Term

type t = {
  funcs : (string * Hc.fnode) list;
  preds : (string * Hc.pnode) list;
  values : (string * Hc.vnode) list;
}

let empty = { funcs = []; preds = []; values = [] }

let bind_func t h (f : Hc.fnode) =
  match List.assoc_opt h t.funcs with
  | Some f' -> if f == f' then Some t else None
  | None -> Some { t with funcs = (h, f) :: t.funcs }

let bind_pred t h (p : Hc.pnode) =
  match List.assoc_opt h t.preds with
  | Some p' -> if p == p' then Some t else None
  | None -> Some { t with preds = (h, p) :: t.preds }

let bind_value t h (v : Hc.vnode) =
  match List.assoc_opt h t.values with
  | Some v' -> if v == v' then Some t else None
  | None -> Some { t with values = (h, v) :: t.values }

let find_func t h = List.assoc_opt h t.funcs
let find_pred t h = List.assoc_opt h t.preds
let find_value t h = List.assoc_opt h t.values

(* Instantiate a plain value, rebuilding collections through the
   canonicalizing constructors. *)
let rec plain_value t (v : Value.t) =
  match v with
  | Value.Hole h -> (
    match find_value t h with Some v' -> Hc.to_value v' | None -> v)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Named _ -> v
  | Value.Pair (a, b) -> Value.Pair (plain_value t a, plain_value t b)
  | Value.Set xs -> Value.set (List.map (plain_value t) xs)
  | Value.Bag xs -> Value.bag (List.map (plain_value t) xs)
  | Value.List xs -> Value.list (List.map (plain_value t) xs)
  | Value.Obj o ->
    Value.Obj
      { o with
        Value.fields =
          List.map (fun (k, x) -> (k, plain_value t x)) o.Value.fields }

let rec apply_func t (f : Hc.fnode) =
  if f.Hc.fhole_free then f
  else
    match f.Hc.fshape with
    | Hc.HFhole h -> (
      match find_func t h with Some f' -> f' | None -> f)
    | Hc.HId | Hc.HPi1 | Hc.HPi2 | Hc.HPrim _ | Hc.HFlat | Hc.HSng
    | Hc.HArith _ | Hc.HAgg _ | Hc.HSetop _ -> f
    | Hc.HCompose (a, b) ->
      let a' = apply_func t a and b' = apply_func t b in
      if a' == a && b' == b then f else Hc.compose a' b'
    | Hc.HPairf (a, b) ->
      let a' = apply_func t a and b' = apply_func t b in
      if a' == a && b' == b then f else Hc.pairf a' b'
    | Hc.HTimes (a, b) ->
      let a' = apply_func t a and b' = apply_func t b in
      if a' == a && b' == b then f else Hc.times a' b'
    | Hc.HNest (a, b) ->
      let a' = apply_func t a and b' = apply_func t b in
      if a' == a && b' == b then f else Hc.nest a' b'
    | Hc.HUnnest (a, b) ->
      let a' = apply_func t a and b' = apply_func t b in
      if a' == a && b' == b then f else Hc.unnest a' b'
    | Hc.HKf v ->
      let v' = apply_value t v in
      if v' == v then f else Hc.kf v'
    | Hc.HCf (a, v) ->
      let a' = apply_func t a and v' = apply_value t v in
      if a' == a && v' == v then f else Hc.cf a' v'
    | Hc.HCon (p, a, b) ->
      let p' = apply_pred t p
      and a' = apply_func t a
      and b' = apply_func t b in
      if p' == p && a' == a && b' == b then f else Hc.con p' a' b'
    | Hc.HIterate (p, a) ->
      let p' = apply_pred t p and a' = apply_func t a in
      if p' == p && a' == a then f else Hc.iterate p' a'
    | Hc.HIter (p, a) ->
      let p' = apply_pred t p and a' = apply_func t a in
      if p' == p && a' == a then f else Hc.iter p' a'
    | Hc.HJoin (p, a) ->
      let p' = apply_pred t p and a' = apply_func t a in
      if p' == p && a' == a then f else Hc.join p' a'

and apply_pred t (p : Hc.pnode) =
  if p.Hc.phole_free then p
  else
    match p.Hc.pshape with
    | Hc.HPhole h -> (
      match find_pred t h with Some p' -> p' | None -> p)
    | Hc.HEq | Hc.HLeq | Hc.HGt | Hc.HIn | Hc.HPrimp _ | Hc.HKp _ -> p
    | Hc.HOplus (q, f) ->
      let q' = apply_pred t q and f' = apply_func t f in
      if q' == q && f' == f then p else Hc.oplus q' f'
    | Hc.HAndp (q, r) ->
      let q' = apply_pred t q and r' = apply_pred t r in
      if q' == q && r' == r then p else Hc.andp q' r'
    | Hc.HOrp (q, r) ->
      let q' = apply_pred t q and r' = apply_pred t r in
      if q' == q && r' == r then p else Hc.orp q' r'
    | Hc.HInv q ->
      let q' = apply_pred t q in
      if q' == q then p else Hc.inv q'
    | Hc.HConv q ->
      let q' = apply_pred t q in
      if q' == q then p else Hc.conv q'
    | Hc.HCp (q, v) ->
      let q' = apply_pred t q and v' = apply_value t v in
      if q' == q && v' == v then p else Hc.cp q' v'

and apply_value t (v : Hc.vnode) =
  if v.Hc.vhole_free then v
  else
    match v.Hc.vshape with
    | Hc.HVhole h -> (
      match find_value t h with Some v' -> v' | None -> v)
    | Hc.HVpair (a, b) ->
      let a' = apply_value t a and b' = apply_value t b in
      if a' == a && b' == b then v else Hc.vpair a' b'
    (* Value patterns this deep are rare and cold. *)
    | Hc.HVset _ | Hc.HVbag _ | Hc.HVlist _ | Hc.HVobj _ ->
      Hc.of_value (plain_value t (Hc.to_value v))
    | Hc.HVunit | Hc.HVbool _ | Hc.HVint _ | Hc.HVstr _ | Hc.HVnamed _ -> v
