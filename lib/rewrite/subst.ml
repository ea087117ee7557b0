(* Substitutions binding pattern holes to ground terms.

   A binding environment maps function holes to functions, predicate holes to
   predicates and value holes to values.  [apply_*] instantiates a pattern
   under a binding; unbound holes are left in place so substitutions compose.

   [apply_*] preserve physical identity: a subtree under which no binding
   applies is returned unchanged, not reallocated — rewriting a term then
   shares every untouched subterm with the original, which is what lets
   hash-consed sharing (see {!Kola.Term.Hc}) survive rule application. *)

open Kola
open Kola.Term

type t = {
  funcs : (string * func) list;
  preds : (string * pred) list;
  values : (string * Value.t) list;
}

let empty = { funcs = []; preds = []; values = [] }

let bind_func t h f =
  match List.assoc_opt h t.funcs with
  | Some f' -> if equal_func f f' then Some t else None
  | None -> Some { t with funcs = (h, f) :: t.funcs }

let bind_pred t h p =
  match List.assoc_opt h t.preds with
  | Some p' -> if equal_pred p p' then Some t else None
  | None -> Some { t with preds = (h, p) :: t.preds }

let bind_value t h v =
  match List.assoc_opt h t.values with
  | Some v' -> if Value.equal v v' then Some t else None
  | None -> Some { t with values = (h, v) :: t.values }

let find_func t h = List.assoc_opt h t.funcs
let find_pred t h = List.assoc_opt h t.preds
let find_value t h = List.assoc_opt h t.values

(* [map_sharing f xs] is [List.map f xs], except it returns [xs] itself when
   every element mapped to itself. *)
let map_sharing f xs =
  let changed = ref false in
  let ys =
    List.map
      (fun x ->
        let y = f x in
        if y != x then changed := true;
        y)
      xs
  in
  if !changed then ys else xs

let rec apply_func t f =
  match f with
  | Fhole h -> (
    match find_func t h with Some f' -> f' | None -> f)
  | Id | Pi1 | Pi2 | Prim _ | Flat | Sng | Arith _ | Agg _ | Setop _ -> f
  | Compose (f1, f2) ->
    let f1' = apply_func t f1 and f2' = apply_func t f2 in
    if f1' == f1 && f2' == f2 then f else Compose (f1', f2')
  | Pairf (f1, f2) ->
    let f1' = apply_func t f1 and f2' = apply_func t f2 in
    if f1' == f1 && f2' == f2 then f else Pairf (f1', f2')
  | Times (f1, f2) ->
    let f1' = apply_func t f1 and f2' = apply_func t f2 in
    if f1' == f1 && f2' == f2 then f else Times (f1', f2')
  | Nest (f1, f2) ->
    let f1' = apply_func t f1 and f2' = apply_func t f2 in
    if f1' == f1 && f2' == f2 then f else Nest (f1', f2')
  | Unnest (f1, f2) ->
    let f1' = apply_func t f1 and f2' = apply_func t f2 in
    if f1' == f1 && f2' == f2 then f else Unnest (f1', f2')
  | Kf v ->
    let v' = apply_value t v in
    if v' == v then f else Kf v'
  | Cf (f1, v) ->
    let f1' = apply_func t f1 and v' = apply_value t v in
    if f1' == f1 && v' == v then f else Cf (f1', v')
  | Con (p, f1, f2) ->
    let p' = apply_pred t p
    and f1' = apply_func t f1
    and f2' = apply_func t f2 in
    if p' == p && f1' == f1 && f2' == f2 then f else Con (p', f1', f2')
  | Iterate (p, f1) ->
    let p' = apply_pred t p and f1' = apply_func t f1 in
    if p' == p && f1' == f1 then f else Iterate (p', f1')
  | Iter (p, f1) ->
    let p' = apply_pred t p and f1' = apply_func t f1 in
    if p' == p && f1' == f1 then f else Iter (p', f1')
  | Join (p, f1) ->
    let p' = apply_pred t p and f1' = apply_func t f1 in
    if p' == p && f1' == f1 then f else Join (p', f1')

and apply_pred t p =
  match p with
  | Phole h -> (
    match find_pred t h with Some p' -> p' | None -> p)
  | Eq | Leq | Gt | In | Primp _ | Kp _ -> p
  | Oplus (p1, f) ->
    let p1' = apply_pred t p1 and f' = apply_func t f in
    if p1' == p1 && f' == f then p else Oplus (p1', f')
  | Andp (p1, p2) ->
    let p1' = apply_pred t p1 and p2' = apply_pred t p2 in
    if p1' == p1 && p2' == p2 then p else Andp (p1', p2')
  | Orp (p1, p2) ->
    let p1' = apply_pred t p1 and p2' = apply_pred t p2 in
    if p1' == p1 && p2' == p2 then p else Orp (p1', p2')
  | Inv p1 ->
    let p1' = apply_pred t p1 in
    if p1' == p1 then p else Inv p1'
  | Conv p1 ->
    let p1' = apply_pred t p1 in
    if p1' == p1 then p else Conv p1'
  | Cp (p1, v) ->
    let p1' = apply_pred t p1 and v' = apply_value t v in
    if p1' == p1 && v' == v then p else Cp (p1', v')

and apply_value t v =
  match v with
  | Value.Hole h -> (
    match find_value t h with Some v' -> v' | None -> v)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Named _ -> v
  | Value.Pair (a, b) ->
    let a' = apply_value t a and b' = apply_value t b in
    if a' == a && b' == b then v else Value.Pair (a', b')
  | Value.Set xs ->
    (* Bound elements can change the sort order, so an actual substitution
       must go back through the canonicalizing constructor. *)
    let xs' = map_sharing (apply_value t) xs in
    if xs' == xs then v else Value.set xs'
  | Value.Bag xs ->
    let xs' = map_sharing (apply_value t) xs in
    if xs' == xs then v else Value.bag xs'
  | Value.List xs ->
    let xs' = map_sharing (apply_value t) xs in
    if xs' == xs then v else Value.list xs'
  | Value.Obj o ->
    let fields' =
      map_sharing
        (fun (k, x) ->
          let x' = apply_value t x in
          if x' == x then (k, x) else (k, x'))
        o.Value.fields
    in
    if fields' == o.Value.fields then v
    else Value.Obj { o with Value.fields = fields' }

let apply_value_plain = apply_value

let pp ppf t =
  let pf ppf (h, f) = Fmt.pf ppf "?%s := %a" h Pretty.pp_func f in
  let ppr ppf (h, p) = Fmt.pf ppf "?%s := %a" h Pretty.pp_pred p in
  let pv ppf (h, v) = Fmt.pf ppf "?%s := %a" h Value.pp v in
  Fmt.pf ppf "@[<v>%a%a%a@]" (Fmt.list pf) t.funcs (Fmt.list ppr) t.preds
    (Fmt.list pv) t.values

(* Interned substitutions: bindings hold hash-consed nodes, so the rebind
   consistency check is physical equality and instantiation short-circuits
   on the [*hole_free] bit — a pattern subtree without holes *is* its own
   instantiation.  Rebuilds go through the smart constructors and return
   the input node when no child changed, preserving maximal sharing. *)
module H = struct
  type plain = t

  type t = {
    funcs : (string * Hc.fnode) list;
    preds : (string * Hc.pnode) list;
    values : (string * Hc.vnode) list;
  }

  let empty = { funcs = []; preds = []; values = [] }

  (* Physical equality on interned nodes is structural equality, so these
     are exactly the plain [bind_*] consistency checks, at O(1). *)
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

  let to_plain t : plain =
    {
      funcs = List.map (fun (h, f) -> (h, Hc.to_func f)) t.funcs;
      preds = List.map (fun (h, p) -> (h, Hc.to_pred p)) t.preds;
      values = List.map (fun (h, v) -> (h, Hc.to_value v)) t.values;
    }

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
      (* Substituting under a set can change the sort order, so collection
         and object shapes with holes take the plain (canonicalizing) path
         and re-intern; value patterns this deep are rare and cold. *)
      | Hc.HVset _ | Hc.HVbag _ | Hc.HVlist _ | Hc.HVobj _ ->
        Hc.of_value (apply_value_plain (to_plain t) (Hc.to_value v))
      | Hc.HVunit | Hc.HVbool _ | Hc.HVint _ | Hc.HVstr _ | Hc.HVnamed _ -> v
end
