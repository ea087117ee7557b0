(* Declarative rewrite rules over KOLA terms.

   A rule is a pair of patterns plus (optionally) precondition properties on
   the functions its holes bind — never code, per the paper's thesis.  Rules
   come in three kinds: over functions, over predicates, and over whole
   queries (the paper's rule 19 rewrites [iterate(...) ! A] into a form that
   changes the query argument, so it cannot be a pure function rule).

   Rules are declared on plain terms and fire on interned ones: the
   patterns are interned once per rule and memoized, so pattern nodes are
   shared across every match attempt the rule ever makes. *)

open Kola
open Kola.Term

type body =
  | Fun_rule of func * func
  | Pred_rule of pred * pred
  | Query_rule of (func * Value.t) * (func * Value.t)

type patterns =
  | Fun_pats of Hc.fnode * Hc.fnode
  | Pred_pats of Hc.pnode * Hc.pnode
  | Query_pats of (Hc.fnode * Hc.vnode) * (Hc.fnode * Hc.vnode)

type precondition = { prop : Props.prop; hole : string }

type t = {
  name : string;  (** e.g. "r11"; paper rules are numbered as printed *)
  body : body;
  preconditions : precondition list;
  mutable patterns_memo : patterns option;
      (** lazily interned [body]; benignly racy under domains — every
          writer stores structurally identical tuples of physically
          identical interned nodes *)
  fire_counter : string;  (** ["rule.fire." ^ name] *)
  miss_counter : string;  (** ["rule.miss." ^ name] *)
}

(* The telemetry counter names are built here, once per rule, rather
   than at every recorded firing or miss. *)
let make ?(preconditions = []) ~name body =
  {
    name;
    body;
    preconditions;
    patterns_memo = None;
    fire_counter = "rule.fire." ^ name;
    miss_counter = "rule.miss." ^ name;
  }

let fun_rule ?preconditions ~name lhs rhs =
  make ?preconditions ~name (Fun_rule (lhs, rhs))

let pred_rule ?preconditions ~name lhs rhs =
  make ?preconditions ~name (Pred_rule (lhs, rhs))

let query_rule ?preconditions ~name lhs rhs =
  make ?preconditions ~name (Query_rule (lhs, rhs))

(* A rule read right-to-left, as the paper does with its "i⁻¹" references. *)
let flip t =
  let body =
    match t.body with
    | Fun_rule (l, r) -> Fun_rule (r, l)
    | Pred_rule (l, r) -> Pred_rule (r, l)
    | Query_rule (l, r) -> Query_rule (r, l)
  in
  (* The memo caches the unflipped patterns; it must not survive the flip. *)
  make ~preconditions:t.preconditions ~name:(t.name ^ "-1") body

let patterns t =
  match t.patterns_memo with
  | Some p -> p
  | None ->
    let p =
      match t.body with
      | Fun_rule (l, r) -> Fun_pats (Hc.of_func l, Hc.of_func r)
      | Pred_rule (l, r) -> Pred_pats (Hc.of_pred l, Hc.of_pred r)
      | Query_rule ((l, la), (r, ra)) ->
        Query_pats
          ((Hc.of_func l, Hc.of_value la), (Hc.of_func r, Hc.of_value ra))
    in
    t.patterns_memo <- Some p;
    p

(* Holes carry no head bit, so a hole-rooted pattern has mask 0 and every
   node remains a candidate. *)
let head_mask t =
  match patterns t with
  | Fun_pats (l, _) -> Hc.fshape_bit l.Hc.fshape
  | Pred_pats (l, _) -> Hc.pshape_bit l.Hc.pshape
  | Query_pats _ -> 0

let mask_may_fire mask t =
  let m = head_mask t in
  m = 0 || mask land m <> 0

(* A precondition names a hole; the property is read against whatever the
   match bound it to — a function (injective, total, ...) or a value
   (set-valued).  An unbound hole is conservatively a failure. *)
let check_preconditions schema t subst =
  List.for_all
    (fun { prop; hole } ->
      match Subst.find_func subst hole with
      | Some f -> Props.holds schema prop (Hc.to_func f)
      | None -> (
        match Subst.find_value subst hole with
        | Some v -> Props.holds_value prop (Hc.to_value v)
        | None -> false))
    t.preconditions

(* Apply [t] at the root of a function term.

   Composition is matched modulo associativity: when both the pattern and
   the target are composition chains, the pattern's chain is matched against
   every window of consecutive elements of the target's chain, and the
   instantiated right-hand side is spliced back in.  This mirrors the
   paper's reading of f1 ∘ f2 ∘ ... ∘ fn "without parentheses (exploiting
   associativity)".

   A match sends every non-hole pattern node to a target node with the
   same head, so a pattern whose head bitmask has a bit the target's
   lacks is refused before any walk. *)
let apply_func ?(schema = Schema.paper) t (f : Hc.fnode) =
  match patterns t with
  | Pred_pats _ | Query_pats _ -> None
  | Fun_pats (lhs, _) when lhs.Hc.fheads land lnot f.Hc.fheads <> 0 -> None
  | Fun_pats (lhs, rhs) -> (
    match lhs.Hc.fshape, f.Hc.fshape with
    | Hc.HCompose _, Hc.HCompose _ ->
      let lparts = Hc.unchain lhs and tparts = Hc.unchain f in
      let n = List.length tparts in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      let rec drop n xs =
        if n = 0 then xs
        else match xs with [] -> [] | _ :: rest -> drop (n - 1) rest
      in
      (* Every pattern element matches one target element and a bare hole
         one or more, so a window is never shorter than the pattern chain,
         and longer only when a hole can absorb the difference. *)
      let shortest = List.length lparts in
      let absorbs =
        List.exists
          (fun p -> match p.Hc.fshape with Hc.HFhole _ -> true | _ -> false)
          lparts
      in
      (* Try every window that can match, leftmost and shortest first,
         matched as element lists (no window node is built);
         Match.chain_match handles absorption within the window.
         [suffix] is [tparts] from element [i] on. *)
      let rec try_at i suffix len =
        if i + shortest > n then None
        else if i + len > n || (len > shortest && not absorbs) then
          try_at (i + 1) (List.tl suffix) shortest
        else
          match Match.chain_match Subst.empty lparts (take len suffix) with
          | Some subst when check_preconditions schema t subst ->
            let rhs' = Hc.unchain (Subst.apply_func subst rhs) in
            let parts' = take i tparts @ rhs' @ drop len suffix in
            Some (Hc.chain parts')
          | _ -> try_at i suffix (len + 1)
      in
      try_at 0 tparts shortest
    | _ -> (
      match Match.func Subst.empty lhs f with
      | Some subst when check_preconditions schema t subst ->
        Some (Subst.apply_func subst rhs)
      | _ -> None))

(* Apply [t] at the root of a predicate term. *)
let apply_pred ?(schema = Schema.paper) t (p : Hc.pnode) =
  match patterns t with
  | Pred_pats (lhs, _) when lhs.Hc.pheads land lnot p.Hc.pheads <> 0 -> None
  | Pred_pats (lhs, rhs) -> (
    match Match.pred Subst.empty lhs p with
    | Some subst when check_preconditions schema t subst ->
      Some (Subst.apply_pred subst rhs)
    | _ -> None)
  | Fun_pats _ | Query_pats _ -> None

(* Apply a query rule to a query.  The function part of the pattern is
   matched against the *tail* of the query's composition chain (the operator
   adjacent to the argument), as required by the paper's bottom-out step. *)
let apply_query ?(schema = Schema.paper) t (hq : Hc.hquery) =
  match patterns t with
  | Query_pats ((lpat, lav), (rpat, rav)) ->
    let parts = Hc.unchain hq.Hc.hbody in
    let rec split_last acc = function
      | [] -> None
      | [ last ] -> Some (List.rev acc, last)
      | x :: rest -> split_last (x :: acc) rest
    in
    Option.bind (split_last [] parts) (fun (prefix, last) ->
        match Match.func Subst.empty lpat last with
        | Some subst -> (
          match Match.value subst lav hq.Hc.harg with
          | Some subst when check_preconditions schema t subst ->
            let last' = Subst.apply_func subst rpat in
            let arg' = Subst.apply_value subst rav in
            Some
              {
                Hc.hbody = Hc.chain (prefix @ Hc.unchain last');
                Hc.harg = arg';
              }
          | _ -> None)
        | None -> None)
  | Fun_pats _ | Pred_pats _ -> None

let pp ppf t =
  let arrow = " \u{2192} " in
  match t.body with
  | Fun_rule (l, r) ->
    Fmt.pf ppf "@[<hv 2>%s:@ %a%s%a@]" t.name Pretty.pp_func l arrow
      Pretty.pp_func r
  | Pred_rule (l, r) ->
    Fmt.pf ppf "@[<hv 2>%s:@ %a%s%a@]" t.name Pretty.pp_pred l arrow
      Pretty.pp_pred r
  | Query_rule ((l, la), (r, ra)) ->
    Fmt.pf ppf "@[<hv 2>%s:@ %a ! %a%s%a ! %a@]" t.name Pretty.pp_func l
      Value.pp la arrow Pretty.pp_func r Value.pp ra
