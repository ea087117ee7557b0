(* The hash-consed term core: maximal sharing (structural equality is
   physical equality), O(1) hash/size/canonical keys and head bitmasks.
   Correctness is equivalence once more: converters must round-trip,
   interned fields must agree with the plain recursive functions, and
   id-pair dedup must partition queries exactly like canonical keys.  The
   search built on them is pinned by golden outcomes (test_golden_search)
   and by jobs-count equivalence (test_parallel). *)

open Kola
open Util
module Hc = Term.Hc
module Index = Rewrite.Index
module Subst = Rewrite.Subst
module Search = Optimizer.Search

let paper_queries =
  [ Paper.t1k_source; Paper.t2k_source; Paper.k3; Paper.k4; Paper.kg1;
    Paper.kg2 ]

let paper_bodies = List.map (fun q -> q.Term.body) paper_queries

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

(* Right-associate every composition chain: an associativity variant that
   id-pair keys must identify with the original. *)
let rec right_assoc f =
  match f with
  | Term.Compose _ ->
    let rec build = function
      | [] -> Term.Id
      | [ g ] -> g
      | g :: gs -> Term.Compose (g, build gs)
    in
    build (List.map right_assoc (Term.unchain f))
  | f -> f

(* Head bits of every node of a plain term, walked the way the rewriter
   descends (no descent into Kf/Cf/Cp constants): the reference for the
   interned [fheads] masks. *)
let head_bit_of = function Some h -> Index.head_bit h | None -> 0

let rec plain_heads_func f =
  head_bit_of (Index.head_of_func f)
  lor
  match f with
  | Term.Id | Term.Pi1 | Term.Pi2 | Term.Prim _ | Term.Flat | Term.Sng
  | Term.Arith _ | Term.Agg _ | Term.Setop _ | Term.Kf _ | Term.Fhole _ ->
    0
  | Term.Compose (a, b) | Term.Pairf (a, b) | Term.Times (a, b)
  | Term.Nest (a, b) | Term.Unnest (a, b) ->
    plain_heads_func a lor plain_heads_func b
  | Term.Cf (a, _) -> plain_heads_func a
  | Term.Con (p, a, b) ->
    plain_heads_pred p lor plain_heads_func a lor plain_heads_func b
  | Term.Iterate (p, a) | Term.Iter (p, a) | Term.Join (p, a) ->
    plain_heads_pred p lor plain_heads_func a

and plain_heads_pred p =
  head_bit_of (Index.head_of_pred p)
  lor
  match p with
  | Term.Eq | Term.Leq | Term.Gt | Term.In | Term.Primp _ | Term.Kp _
  | Term.Phole _ ->
    0
  | Term.Oplus (q, f) -> plain_heads_pred q lor plain_heads_func f
  | Term.Andp (q, r) | Term.Orp (q, r) ->
    plain_heads_pred q lor plain_heads_pred r
  | Term.Inv q | Term.Conv q | Term.Cp (q, _) -> plain_heads_pred q

let tests =
  [
    case "of/to round-trips the paper queries exactly" (fun () ->
        List.iter
          (fun q ->
            Alcotest.check Alcotest.bool "roundtrip" true
              (Term.equal_query q (Hc.to_query (Hc.of_query q))))
          paper_queries);
    case "interning is maximal: equal terms intern to the same node"
      (fun () ->
        List.iter
          (fun b1 ->
            List.iter
              (fun b2 ->
                Alcotest.check Alcotest.bool "equal iff =="
                  (Term.equal_func b1 b2)
                  (Hc.of_func b1 == Hc.of_func b2))
              paper_bodies)
          paper_bodies);
    case "fhash and fsize agree with the plain recursive functions"
      (fun () ->
        List.iter
          (fun b ->
            let n = Hc.of_func b in
            Alcotest.(check int) "fhash" (Term.hash_func b) n.Hc.fhash;
            Alcotest.(check int) "fsize" (Term.size_func b) n.Hc.fsize;
            Alcotest.check Alcotest.bool "hole-free" true n.Hc.fhole_free)
          paper_bodies);
    case "canon mirrors reassoc_func and is physically idempotent"
      (fun () ->
        List.iter
          (fun b ->
            let variant = right_assoc b in
            let c = Hc.canon (Hc.of_func variant) in
            Alcotest.check func "canon = reassoc"
              (Term.reassoc_func variant)
              (Hc.to_func c);
            Alcotest.check Alcotest.bool "canon idempotent (physically)" true
              (Hc.canon c == c);
            Alcotest.check Alcotest.bool
              "associativity variants canon to the same node" true
              (Hc.canon (Hc.of_func b) == c))
          paper_bodies);
    case "query_key partitions states exactly like canonical keys"
      (fun () ->
        List.iter
          (fun q1 ->
            List.iter
              (fun q2 ->
                let v2 = { q2 with Term.body = right_assoc q2.Term.body } in
                let keys_equal =
                  Hc.query_key (Hc.of_query q1) = Hc.query_key (Hc.of_query v2)
                in
                let canon_equal =
                  Term.Canonical.equal
                    (Term.Canonical.of_query q1)
                    (Term.Canonical.of_query v2)
                in
                Alcotest.check Alcotest.bool "same partition" canon_equal
                  keys_equal)
              paper_queries)
          paper_queries);
    case "head masks agree with a plain head walk" (fun () ->
        List.iter
          (fun q ->
            Alcotest.(check int) "fheads"
              (plain_heads_func q.Term.body)
              (Hc.of_query q).Hc.hbody.Hc.fheads)
          paper_queries);
    case "mask_may_fire never prunes a rule that fires" (fun () ->
        List.iter
          (fun q ->
            let mask = (Hc.of_query q).Hc.hbody.Hc.fheads in
            List.iter
              (fun r ->
                if Search.successors [ r ] q <> [] then
                  Alcotest.(check bool)
                    ("rule " ^ r.Rewrite.Rule.name)
                    true (Index.mask_may_fire mask r))
              Rules.Catalog.all)
          paper_queries);
    case "substitution returns the input subtree physically unchanged"
      (fun () ->
        List.iter
          (fun b ->
            (* plain: no binding applies to a hole-free term *)
            Alcotest.check Alcotest.bool "plain, empty subst" true
              (Subst.apply_func Subst.empty b == b);
            let irrelevant =
              Option.get (Subst.bind_func Subst.empty "zz" Term.Id)
            in
            Alcotest.check Alcotest.bool "plain, irrelevant binding" true
              (Subst.apply_func irrelevant b == b);
            (* interned: the hole-free bit short-circuits *)
            let n = Hc.of_func b in
            Alcotest.check Alcotest.bool "interned, empty subst" true
              (Subst.H.apply_func Subst.H.empty n == n))
          paper_bodies);
  ]

let props =
  let open QCheck in
  let arb depth =
    QCheck.make
      ~print:(fun i -> Kola.Pretty.query_to_string (random_query i depth))
      QCheck.Gen.(int_bound 1_000_000)
  in
  [
    Test.make ~count:100 ~name:"of/to round-trips random queries" (arb 3)
      (fun i ->
        let q = random_query i 3 in
        Term.equal_query q (Hc.to_query (Hc.of_query q)));
    Test.make ~count:100
      ~name:"interned hash and size agree with the plain functions on \
             random queries"
      (arb 3)
      (fun i ->
        let b = (random_query i 3).Term.body in
        let n = Hc.of_func b in
        n.Hc.fhash = Term.hash_func b && n.Hc.fsize = Term.size_func b);
    Test.make ~count:120
      ~name:"structural equality is physical equality on random pairs"
      (pair (arb 3) (arb 3))
      (fun (i, j) ->
        let b1 = (random_query i 3).Term.body in
        let b2 = (random_query j 3).Term.body in
        Term.equal_func b1 b2 = (Hc.of_func b1 == Hc.of_func b2));
    Test.make ~count:100
      ~name:"head masks agree with a plain head walk on random queries"
      (arb 3)
      (fun i ->
        let b = (random_query i 3).Term.body in
        (Hc.of_func b).Hc.fheads = plain_heads_func b);
    Test.make ~count:120
      ~name:"id-pair dedup classifies pairs like canonical keys"
      (pair (arb 3) (pair (arb 3) bool))
      (fun (i, (j, use_variant)) ->
        let q1 = random_query i 3 in
        let q2 =
          if use_variant then { q1 with Term.body = right_assoc q1.Term.body }
          else random_query j 3
        in
        let keys_equal =
          Hc.query_key (Hc.of_query q1) = Hc.query_key (Hc.of_query q2)
        in
        Term.Canonical.equal
          (Term.Canonical.of_query q1)
          (Term.Canonical.of_query q2)
        = keys_equal);
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
