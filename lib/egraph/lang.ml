(* The e-node language: one operator per KOLA constructor across all three
   sorts (functions, predicates, values) plus a query wrapper, with values
   kept as concrete leaves.

   E-nodes are [op] applied to an array of e-class ids; the operator payload
   carries everything a constructor holds besides sub-terms (primitive
   names, arithmetic/aggregate/set operators, constant values as interned
   vnodes).  Values never appear as rewrite targets — no rule in the
   catalog rewrites inside a constant — so each distinct value is a
   nullary leaf operator and value e-classes stay singletons forever.

   Every e-node also carries a *witness*: the concrete hash-consed term it
   was created from.  Witnesses are what the proof forest stores, what
   extraction rebuilds candidates from, and what precondition checks read;
   they are fixed at creation, so re-adding a class's witness always lands
   back in that class. *)

open Kola
open Kola.Term

type op =
  (* function sort *)
  | OId
  | OPi1
  | OPi2
  | OPrim of string
  | OCompose
  | OPairf
  | OTimes
  | OKf
  | OCf
  | OCon
  | OArith of arith
  | OAgg of agg
  | OSetop of setop
  | OSng
  | OFlat
  | OIterate
  | OIter
  | OJoin
  | ONest
  | OUnnest
  (* predicate sort *)
  | OEq
  | OLeq
  | OGt
  | OIn
  | OPrimp of string
  | OOplus
  | OAndp
  | OOrp
  | OInv
  | OConv
  | OKp of bool
  | OCp
  (* leaves and wrappers *)
  | OVal of Hc.vnode  (** concrete value; nullary *)
  | OQuery  (** children: [| body; arg |] *)

type sort = Func | Pred | Val | Query

let sort_of_op = function
  | OId | OPi1 | OPi2 | OPrim _ | OCompose | OPairf | OTimes | OKf | OCf
  | OCon | OArith _ | OAgg _ | OSetop _ | OSng | OFlat | OIterate | OIter
  | OJoin | ONest | OUnnest -> Func
  | OEq | OLeq | OGt | OIn | OPrimp _ | OOplus | OAndp | OOrp | OInv | OConv
  | OKp _ | OCp -> Pred
  | OVal _ -> Val
  | OQuery -> Query

let op_equal a b =
  match a, b with
  | OVal v1, OVal v2 -> v1 == v2
  | OPrim s1, OPrim s2 | OPrimp s1, OPrimp s2 -> String.equal s1 s2
  | OArith x, OArith y -> x = y
  | OAgg x, OAgg y -> x = y
  | OSetop x, OSetop y -> x = y
  | OKp x, OKp y -> Bool.equal x y
  | _, _ -> a == b || a = b

let op_hash = function
  | OVal v -> (v.Hc.vid * 0x9e3779b1) land max_int
  | OPrim s -> Hashtbl.hash ("f", s)
  | OPrimp s -> Hashtbl.hash ("p", s)
  | op -> Hashtbl.hash op

(* ------------------------------------------------------------------ *)
(* Witness terms: concrete hash-consed terms spanning all sorts. *)

type wterm =
  | Wf of Hc.fnode
  | Wp of Hc.pnode
  | Wv of Hc.vnode
  | Wq of Hc.fnode * Hc.vnode

(* Identity key of a witness — hash-consing makes term equality an id
   comparison per sort. *)
type wkey = KF of int | KP of int | KV of int | KQ of int * int

let wkey = function
  | Wf f -> KF f.Hc.fid
  | Wp p -> KP p.Hc.pid
  | Wv v -> KV v.Hc.vid
  | Wq (f, v) -> KQ (f.Hc.fid, v.Hc.vid)

(* Head-occurrence bit of a witness's root, read off the interned node
   ({!Kola.Term.Hc.fshape_bit}/[pshape_bit]), so a rule's
   {!Rewrite.Rule.head_mask} prunes e-classes exactly as it prunes
   interned subtrees.  Values and the query wrapper carry no head bit. *)
let head_bit = function
  | Wf f -> Hc.fshape_bit f.Hc.fshape
  | Wp p -> Hc.pshape_bit p.Hc.pshape
  | Wv _ | Wq _ -> 0

exception Hole_in_ground_term of string

(* Operator and child witnesses of a concrete term.  Holes cannot occur:
   the graph only ever holds ground terms (patterns are matched against
   it, never stored in it). *)
let decompose : wterm -> op * wterm list = function
  | Wv v -> (OVal v, [])
  | Wq (f, v) -> (OQuery, [ Wf f; Wv v ])
  | Wp p -> (
    match p.Hc.pshape with
    | Hc.HEq -> (OEq, [])
    | Hc.HLeq -> (OLeq, [])
    | Hc.HGt -> (OGt, [])
    | Hc.HIn -> (OIn, [])
    | Hc.HPrimp s -> (OPrimp s, [])
    | Hc.HKp b -> (OKp b, [])
    | Hc.HOplus (q, f) -> (OOplus, [ Wp q; Wf f ])
    | Hc.HAndp (q, r) -> (OAndp, [ Wp q; Wp r ])
    | Hc.HOrp (q, r) -> (OOrp, [ Wp q; Wp r ])
    | Hc.HInv q -> (OInv, [ Wp q ])
    | Hc.HConv q -> (OConv, [ Wp q ])
    | Hc.HCp (q, v) -> (OCp, [ Wp q; Wv v ])
    | Hc.HPhole h -> raise (Hole_in_ground_term h))
  | Wf f -> (
    match f.Hc.fshape with
    | Hc.HId -> (OId, [])
    | Hc.HPi1 -> (OPi1, [])
    | Hc.HPi2 -> (OPi2, [])
    | Hc.HPrim s -> (OPrim s, [])
    | Hc.HSng -> (OSng, [])
    | Hc.HFlat -> (OFlat, [])
    | Hc.HArith op -> (OArith op, [])
    | Hc.HAgg op -> (OAgg op, [])
    | Hc.HSetop op -> (OSetop op, [])
    | Hc.HCompose (a, b) -> (OCompose, [ Wf a; Wf b ])
    | Hc.HPairf (a, b) -> (OPairf, [ Wf a; Wf b ])
    | Hc.HTimes (a, b) -> (OTimes, [ Wf a; Wf b ])
    | Hc.HNest (a, b) -> (ONest, [ Wf a; Wf b ])
    | Hc.HUnnest (a, b) -> (OUnnest, [ Wf a; Wf b ])
    | Hc.HKf v -> (OKf, [ Wv v ])
    | Hc.HCf (a, v) -> (OCf, [ Wf a; Wv v ])
    | Hc.HCon (p, a, b) -> (OCon, [ Wp p; Wf a; Wf b ])
    | Hc.HIterate (p, a) -> (OIterate, [ Wp p; Wf a ])
    | Hc.HIter (p, a) -> (OIter, [ Wp p; Wf a ])
    | Hc.HJoin (p, a) -> (OJoin, [ Wp p; Wf a ])
    | Hc.HFhole h -> raise (Hole_in_ground_term h))

let as_f = function Wf f -> f | _ -> invalid_arg "Lang.as_f"
let as_p = function Wp p -> p | _ -> invalid_arg "Lang.as_p"
let as_v = function Wv v -> v | _ -> invalid_arg "Lang.as_v"

(* Inverse of [decompose]: the witness an operator builds from child
   witnesses, through the interning smart constructors. *)
let rebuild (op : op) (cs : wterm list) : wterm =
  match op, cs with
  | OVal v, [] -> Wv v
  | OQuery, [ b; a ] -> Wq (as_f b, as_v a)
  | OId, [] -> Wf Hc.id
  | OPi1, [] -> Wf Hc.pi1
  | OPi2, [] -> Wf Hc.pi2
  | OPrim s, [] -> Wf (Hc.prim s)
  | OSng, [] -> Wf Hc.sng
  | OFlat, [] -> Wf Hc.flat
  | OArith o, [] -> Wf (Hc.arith o)
  | OAgg o, [] -> Wf (Hc.agg o)
  | OSetop o, [] -> Wf (Hc.setop o)
  | OCompose, [ a; b ] -> Wf (Hc.compose (as_f a) (as_f b))
  | OPairf, [ a; b ] -> Wf (Hc.pairf (as_f a) (as_f b))
  | OTimes, [ a; b ] -> Wf (Hc.times (as_f a) (as_f b))
  | ONest, [ a; b ] -> Wf (Hc.nest (as_f a) (as_f b))
  | OUnnest, [ a; b ] -> Wf (Hc.unnest (as_f a) (as_f b))
  | OKf, [ v ] -> Wf (Hc.kf (as_v v))
  | OCf, [ a; v ] -> Wf (Hc.cf (as_f a) (as_v v))
  | OCon, [ p; a; b ] -> Wf (Hc.con (as_p p) (as_f a) (as_f b))
  | OIterate, [ p; a ] -> Wf (Hc.iterate (as_p p) (as_f a))
  | OIter, [ p; a ] -> Wf (Hc.iter (as_p p) (as_f a))
  | OJoin, [ p; a ] -> Wf (Hc.join (as_p p) (as_f a))
  | OEq, [] -> Wp Hc.eq
  | OLeq, [] -> Wp Hc.leq
  | OGt, [] -> Wp Hc.gt
  | OIn, [] -> Wp Hc.inp
  | OPrimp s, [] -> Wp (Hc.primp s)
  | OKp b, [] -> Wp (Hc.kp b)
  | OOplus, [ q; f ] -> Wp (Hc.oplus (as_p q) (as_f f))
  | OAndp, [ q; r ] -> Wp (Hc.andp (as_p q) (as_p r))
  | OOrp, [ q; r ] -> Wp (Hc.orp (as_p q) (as_p r))
  | OInv, [ q ] -> Wp (Hc.inv (as_p q))
  | OConv, [ q ] -> Wp (Hc.conv (as_p q))
  | OCp, [ q; v ] -> Wp (Hc.cp (as_p q) (as_v v))
  | _ -> invalid_arg "Lang.rebuild: arity mismatch"

(* Per-node extraction weight, mirroring the cost model's philosophy
   ({!Optimizer.Cost}: tuples touched dominate at weight 1 per tuple,
   combinator dispatch costs 0.1 per call).  Extraction cannot execute
   candidates, so data-moving combinators carry a tuple-scale surcharge
   and everything else costs one dispatch; the caller re-measures the
   extracted front with the executed model, so these weights only rank
   candidates, never report costs. *)
let op_weight = function
  | OJoin -> 12.0
  | ONest -> 8.0
  | OUnnest -> 5.0
  | OTimes -> 4.0
  | OIterate | OIter -> 3.0
  | OFlat | OSetop _ | OAgg _ -> 2.0
  | OVal _ | OQuery -> 0.0
  | _ -> 0.1

(* How many times child [i] runs per execution of the operator: the
   collection combinators apply their predicate and body once per input
   element, so weight accumulated inside them multiplies by a nominal
   collection size.  This is what makes extraction prefer hoisted
   spellings — a loop-invariant subterm moved out of an [iter] body
   sheds the factor, exactly as its measured per-tuple cost does, even
   though the flat sum of op weights grows. *)
let op_child_factor op (_i : int) =
  match op with OIter | OIterate | OJoin -> 8.0 | _ -> 1.0

let pp_wterm ppf = function
  | Wf f -> Pretty.pp_func ppf f.Hc.fterm
  | Wp p -> Pretty.pp_pred ppf p.Hc.pterm
  | Wv v -> Value.pp ppf v.Hc.vterm
  | Wq (f, v) ->
    Fmt.pf ppf "%a ! %a" Pretty.pp_func f.Hc.fterm Value.pp v.Hc.vterm
