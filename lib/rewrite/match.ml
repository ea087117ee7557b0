(* One-way matching of rule patterns against interned (sub)terms.

   This is the "unification" of the paper's Section 2.3 discussion: because
   KOLA terms are variable-free, structural matching with consistent hole
   binding is the *entire* applicability test — no environmental analysis,
   no head routines.  Matching is linear in the pattern size.

   A hole-free pattern binds nothing, so it matches a target iff the two
   are equal modulo ∘-associativity.  Physically equal nodes therefore
   match immediately; physically distinct ones can only match through
   chain reassociation, which requires a [Compose] somewhere in the
   pattern — a hole-free pattern whose [fheads] has no [Compose] bit
   matches purely structurally, and structural equality of interned nodes
   *is* physical equality, so the mismatch is decided in O(1).  Patterns
   with a [Compose] fall through to the full walk, whose recursive calls
   re-enter the fast path at every level. *)

open Kola.Term

let rec func subst (pat : Hc.fnode) (t : Hc.fnode) =
  if pat.Hc.fhole_free then
    if pat == t then Some subst
    else if pat.Hc.fheads land Hc.compose_mask = 0 then None
    else func_walk subst pat t
  else func_walk subst pat t

and func_walk subst pat t =
  match pat.Hc.fshape, t.Hc.fshape with
  | Hc.HFhole h, _ -> Subst.bind_func subst h t
  | Hc.HId, Hc.HId
  | Hc.HPi1, Hc.HPi1
  | Hc.HPi2, Hc.HPi2
  | Hc.HFlat, Hc.HFlat
  | Hc.HSng, Hc.HSng -> Some subst
  | Hc.HPrim a, Hc.HPrim b when String.equal a b -> Some subst
  (* Compositions match modulo associativity: both chains are flattened
     and matched elementwise, except that a bare hole element may absorb
     any non-empty run of consecutive target elements (the paper's rule 17
     binds g to whatever processing follows the inner loop, however
     long). *)
  | Hc.HCompose _, Hc.HCompose _ ->
    chain_match subst (Hc.unchain pat) (Hc.unchain t)
  | Hc.HPairf (p1, p2), Hc.HPairf (t1, t2)
  | Hc.HTimes (p1, p2), Hc.HTimes (t1, t2)
  | Hc.HNest (p1, p2), Hc.HNest (t1, t2)
  | Hc.HUnnest (p1, p2), Hc.HUnnest (t1, t2) ->
    Option.bind (func subst p1 t1) (fun s -> func s p2 t2)
  | Hc.HKf pv, Hc.HKf tv -> value subst pv tv
  | Hc.HCf (p1, pv), Hc.HCf (t1, tv) ->
    Option.bind (func subst p1 t1) (fun s -> value s pv tv)
  | Hc.HCon (pp, p1, p2), Hc.HCon (tp, t1, t2) ->
    Option.bind (pred subst pp tp) (fun s ->
        Option.bind (func s p1 t1) (fun s -> func s p2 t2))
  | Hc.HArith a, Hc.HArith b when a = b -> Some subst
  | Hc.HAgg a, Hc.HAgg b when a = b -> Some subst
  | Hc.HSetop a, Hc.HSetop b when a = b -> Some subst
  | Hc.HIterate (pp, p1), Hc.HIterate (tp, t1)
  | Hc.HIter (pp, p1), Hc.HIter (tp, t1)
  | Hc.HJoin (pp, p1), Hc.HJoin (tp, t1) ->
    Option.bind (pred subst pp tp) (fun s -> func s p1 t1)
  | _, _ -> None

(* Match a flattened pattern chain against a flattened target chain.  Bare
   hole elements may absorb one or more consecutive target elements; all
   other elements match exactly one.  Backtracks over absorption lengths. *)
and chain_match subst lps tps =
  match lps, tps with
  | [], [] -> Some subst
  | [], _ :: _ | _ :: _, [] -> None
  | lp :: lrest, _ -> (
    match lp.Hc.fshape with
    | Hc.HFhole h ->
      let n = List.length tps in
      let max_take = n - List.length lrest in
      let rec try_take k =
        if k > max_take then None
        else
          let rec split i acc = function
            | rest when i = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: rest -> split (i - 1) (x :: acc) rest
          in
          let taken, rest = split k [] tps in
          match Subst.bind_func subst h (Hc.chain taken) with
          | Some s -> (
            match chain_match s lrest rest with
            | Some _ as res -> res
            | None -> try_take (k + 1))
          | None -> try_take (k + 1)
      in
      try_take 1
    | _ -> (
      match tps with
      | tp :: trest ->
        Option.bind (func subst lp tp) (fun s -> chain_match s lrest trest)
      | [] -> None))

and pred subst (pat : Hc.pnode) (t : Hc.pnode) =
  if pat.Hc.phole_free then
    if pat == t then Some subst
    else if pat.Hc.pheads land Hc.compose_mask = 0 then None
    else pred_walk subst pat t
  else pred_walk subst pat t

and pred_walk subst pat t =
  match pat.Hc.pshape, t.Hc.pshape with
  | Hc.HPhole h, _ -> Subst.bind_pred subst h t
  | Hc.HEq, Hc.HEq | Hc.HLeq, Hc.HLeq | Hc.HGt, Hc.HGt | Hc.HIn, Hc.HIn ->
    Some subst
  | Hc.HPrimp a, Hc.HPrimp b when String.equal a b -> Some subst
  | Hc.HOplus (pp, pf), Hc.HOplus (tp, tf) ->
    Option.bind (pred subst pp tp) (fun s -> func s pf tf)
  | Hc.HAndp (p1, p2), Hc.HAndp (t1, t2)
  | Hc.HOrp (p1, p2), Hc.HOrp (t1, t2) ->
    Option.bind (pred subst p1 t1) (fun s -> pred s p2 t2)
  | Hc.HInv p1, Hc.HInv t1 | Hc.HConv p1, Hc.HConv t1 -> pred subst p1 t1
  | Hc.HKp a, Hc.HKp b when Bool.equal a b -> Some subst
  | Hc.HCp (p1, pv), Hc.HCp (t1, tv) ->
    Option.bind (pred subst p1 t1) (fun s -> value s pv tv)
  | _, _ -> None

(* Non-hole value patterns must match exactly; patterns do not descend
   into the structure of sets and objects. *)
and value subst (pat : Hc.vnode) (t : Hc.vnode) =
  match pat.Hc.vshape with
  | Hc.HVhole h -> Subst.bind_value subst h t
  | _ -> (
    let pat = Subst.apply_value subst pat in
    if pat.Hc.vhole_free && pat == t then Some subst
    else
      match pat.Hc.vshape, t.Hc.vshape with
      | Hc.HVpair (p1, p2), Hc.HVpair (t1, t2) ->
        Option.bind (value subst p1 t1) (fun s -> value s p2 t2)
      | _ -> None)
