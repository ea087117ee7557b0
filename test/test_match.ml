(* The matching engine: one-way unification with consistent hole binding,
   chain segment matching, and the substitution laws rules rely on.
   Patterns and targets are written as plain terms and interned at the
   call. *)

open Kola
open Kola.Term
module M = Rewrite.Match
module S = Rewrite.Subst
open Util

let f = Fhole "f"
let g = Fhole "g"
let p = Phole "p"

(* Matching and binding lookups on plain terms, through interning. *)
let mfunc s pat t = M.func s (Hc.of_func pat) (Hc.of_func t)
let mpred s pat t = M.pred s (Hc.of_pred pat) (Hc.of_pred t)
let find_func s h = Option.map Hc.to_func (S.find_func s h)

let must = function
  | Some s -> s
  | None -> Alcotest.fail "expected a match"

(* Kf(?k) → Kf(c [?k; 3]) for a collection constructor [c]. *)
let collect_rule name c =
  Rewrite.Rule.fun_rule ~name (Kf (Value.Hole "k"))
    (Kf (c [ Value.Hole "k"; int 3 ]))

let tests =
  [
    case "hole binds anything" (fun () ->
        let s = must (mfunc S.empty f (Prim "age")) in
        Alcotest.check (Alcotest.option func) "bound" (Some (Prim "age"))
          (find_func s "f"));
    case "repeated holes must bind consistently" (fun () ->
        Alcotest.check Alcotest.bool "same" true
          (Option.is_some (mfunc S.empty (Pairf (f, f)) (Pairf (Id, Id))));
        Alcotest.check Alcotest.bool "different" false
          (Option.is_some (mfunc S.empty (Pairf (f, f)) (Pairf (Id, Pi1)))));
    case "match then substitute reproduces the target" (fun () ->
        let pat = Iterate (p, Compose (f, g)) in
        let target =
          Iterate (Kp true, Compose (Prim "city", Prim "addr"))
        in
        let s = must (mfunc S.empty pat target) in
        Alcotest.check func "round-trip" target
          (Hc.to_func (S.apply_func s (Hc.of_func pat))));
    case "structural mismatch fails" (fun () ->
        Alcotest.check Alcotest.bool "iterate vs iter" false
          (Option.is_some
             (mfunc S.empty (Iterate (p, f)) (Iter (Kp true, Id)))));
    case "chains match modulo associativity" (fun () ->
        let pat = Compose (Iterate (p, f), Iterate (Phole "q", g)) in
        let target =
          Compose
            ( Compose (Iterate (Kp true, Prim "city"), Iterate (Kp true, Prim "addr")),
              Id )
        in
        (* pattern must match the [iterate ∘ iterate] window inside *)
        Alcotest.check Alcotest.bool "window" true
          (Option.is_some
             (mfunc S.empty (Compose (pat, Fhole "rest")) target)));
    case "a bare hole absorbs a run of chain elements" (fun () ->
        let pat = Compose (g, Pairf (Id, f)) in
        let target =
          chain [ Flat; Iter (Kp true, Pi2); Pairf (Id, Prim "child") ]
        in
        let s = must (mfunc S.empty pat target) in
        Alcotest.check (Alcotest.option func) "g absorbed two"
          (Some (Compose (Flat, Iter (Kp true, Pi2))))
          (find_func s "g"));
    case "value holes bind constants" (fun () ->
        let s = must (mfunc S.empty (Kf (Value.Hole "k")) (Kf (int 25))) in
        Alcotest.check (Alcotest.option value) "k" (Some (int 25))
          (Option.map Hc.to_value (S.find_value s "k")));
    case "predicate patterns descend into functions" (fun () ->
        let pat = Oplus (p, Pairf (f, Kf (Value.Hole "k"))) in
        let target = Oplus (Gt, Pairf (Prim "age", Kf (int 25))) in
        let s = must (mpred S.empty pat target) in
        Alcotest.check (Alcotest.option pred) "p" (Some Gt)
          (Option.map Hc.to_pred (S.find_pred s "p"));
        Alcotest.check (Alcotest.option func) "f" (Some (Prim "age"))
          (find_func s "f"));
    case "apply on unbound holes is the identity" (fun () ->
        let n = Hc.of_func (Pairf (f, g)) in
        Alcotest.check Alcotest.bool "same node" true (S.apply_func S.empty n == n));
    case "binding twice with equal terms is accepted" (fun () ->
        let s = must (S.bind_func S.empty "f" Hc.id) in
        Alcotest.check Alcotest.bool "same ok" true
          (Option.is_some (S.bind_func s "f" (Hc.of_func Id)));
        Alcotest.check Alcotest.bool "conflict rejected" false
          (Option.is_some (S.bind_func s "f" Hc.pi1)));
    case "a hole substituted into a set constant re-canonicalizes it"
      (fun () ->
        let r = collect_rule "set-k" Value.set in
        Alcotest.check (Alcotest.option func) "{3, 3} collapses"
          (Some (Kf (Value.set [ int 3 ])))
          (fire_func r (Kf (int 3)));
        Alcotest.check (Alcotest.option func) "{1, 3}"
          (Some (Kf (Value.set [ int 1; int 3 ])))
          (fire_func r (Kf (int 1)));
        (* the constant is stored in canonical (sorted) order *)
        match fire_func r (Kf (int 5)) with
        | Some (Kf (Value.Set [ Value.Int 3; Value.Int 5 ])) -> ()
        | other ->
          Alcotest.failf "unexpected %a" Fmt.(Dump.option Pretty.pp_func) other);
    case "a hole substituted into a bag constant keeps duplicates" (fun () ->
        match fire_func (collect_rule "bag-k" Value.bag) (Kf (int 3)) with
        | Some (Kf (Value.Bag [ Value.Int 3; Value.Int 3 ])) -> ()
        | other ->
          Alcotest.failf "unexpected %a" Fmt.(Dump.option Pretty.pp_func) other);
    case "a hole substituted into a list constant keeps element order"
      (fun () ->
        match fire_func (collect_rule "list-k" Value.list) (Kf (int 5)) with
        | Some (Kf (Value.List [ Value.Int 5; Value.Int 3 ])) -> ()
        | other ->
          Alcotest.failf "unexpected %a" Fmt.(Dump.option Pretty.pp_func) other);
  ]

let props =
  let open QCheck in
  (* Generate random ground functions, match them against a hole pattern. *)
  let atom =
    Gen.oneofl
      [ Id; Pi1; Pi2; Flat; Prim "age"; Prim "addr"; Kf (Value.Int 1);
        Iterate (Kp true, Id) ]
  in
  let func_gen =
    Gen.(
      sized_size (int_bound 3) @@ fix (fun self n ->
          if n = 0 then atom
          else
            oneof
              [
                atom;
                map2 (fun a b -> Compose (a, b)) (self (n - 1)) (self (n - 1));
                map2 (fun a b -> Pairf (a, b)) (self (n - 1)) (self (n - 1));
                map (fun a -> Iterate (Kp true, a)) (self (n - 1));
              ]))
  in
  let arb = QCheck.make ~print:Pretty.func_to_string func_gen in
  [
    Test.make ~name:"any ground term matches a bare hole and round-trips"
      ~count:300 arb (fun t ->
        match mfunc S.empty (Fhole "x") t with
        | Some s -> (
          match find_func s "x" with
          | Some t' -> equal_func t t'
          | None -> false)
        | None -> false);
    Test.make ~name:"self-match: every ground term matches itself" ~count:300
      arb (fun t -> Option.is_some (mfunc S.empty t t));
    Test.make ~name:"matching is stable under reassociation" ~count:300 arb
      (fun t ->
        Option.is_some (mfunc S.empty (reassoc_func t) t)
        && Option.is_some (mfunc S.empty t (reassoc_func t)));
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
