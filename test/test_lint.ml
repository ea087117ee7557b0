(* The rule linter: the whole catalog is well-formed; deliberately bad
   rules are flagged. *)

open Kola.Term
module L = Rules.Lint
open Util

let tests =
  [
    case "the entire catalog is lint-clean" (fun () ->
        match L.check_all Rules.Catalog.all with
        | [] -> ()
        | problems ->
          Alcotest.failf "problems: %a"
            Fmt.(
              list ~sep:semi (fun ppf (r, ps) ->
                  pf ppf "%s: %a" r.Rewrite.Rule.name (list L.pp_problem) ps))
            problems);
    case "an unbound right-hand-side hole is flagged" (fun () ->
        let bad =
          Rewrite.Rule.fun_rule ~name:"bad"
            (Compose (Fhole "f", Id))
            (Compose (Fhole "f", Fhole "ghost"))
        in
        match L.check bad with
        | [ L.Unbound_rhs_hole "f:ghost" ] -> ()
        | ps -> Alcotest.failf "unexpected %a" Fmt.(Dump.list L.pp_problem) ps);
    case "a bare-hole left-hand side is flagged" (fun () ->
        let bad =
          Rewrite.Rule.fun_rule ~name:"bad" (Fhole "f") (Fhole "f")
        in
        Alcotest.check Alcotest.bool "flagged" true
          (List.mem L.Lhs_is_a_bare_hole (L.check bad)));
    case "untypable sides are flagged" (fun () ->
        let bad =
          Rewrite.Rule.fun_rule ~name:"bad"
            (Compose (Prim "age", Prim "age"))
            Id
        in
        Alcotest.check Alcotest.bool "flagged" true
          (List.exists
             (function L.Side_does_not_type _ -> true | _ -> false)
             (L.check bad)));
    case "preconditions must name pattern holes" (fun () ->
        let bad =
          Rewrite.Rule.fun_rule ~name:"bad"
            ~preconditions:[ { Rewrite.Rule.prop = Rewrite.Props.Injective; hole = "zz" } ]
            (Compose (Fhole "f", Id))
            (Fhole "f")
        in
        match L.check bad with
        | [ L.Unknown_precondition_hole "zz" ] -> ()
        | ps -> Alcotest.failf "unexpected %a" Fmt.(Dump.list L.pp_problem) ps);
    case "COKO text rules are linted like native ones" (fun () ->
        let p = Coko.Syntax.parse_program "RULE t: id o ?f --> ?f" in
        Alcotest.check Alcotest.int "clean" 0
          (List.length (L.check_all p.Coko.Syntax.rules)));
    case "engine stats now report match attempts" (fun () ->
        let o = Rewrite.Engine.run ~fuel:5 Rules.Catalog.all Kola.Paper.kg1 in
        Alcotest.check Alcotest.bool "attempts counted" true
          (o.Rewrite.Engine.stats.Rewrite.Engine.attempts
          > o.Rewrite.Engine.stats.Rewrite.Engine.firings));
  ]
