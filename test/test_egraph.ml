(* The equality-saturation backend: union-find and congruence-rebuild
   invariants, budgeted saturation with reported stop reasons, cost
   extraction measured against BFS exploration, and saturation-based
   reaches whose replayed derivations the BFS checker validates step by
   step.  Also pins the masked-truncation frontier contract: only the
   truncation of *viable* positions turns [stop] from [Exhausted] to
   [Budget]; subtrees the head-symbol mask already pruned never do. *)

open Kola
open Util
module Search = Optimizer.Search
module Uf = Kola_egraph.Uf
module Lang = Kola_egraph.Lang
module Graph = Kola_egraph.Graph
module Saturate = Kola_egraph.Saturate

let ecfg ?(rules = Rules.Catalog.all) ?budgets () =
  {
    Search.default_config with
    engine = Search.Egraph;
    rules;
    egraph_budgets = Option.value budgets ~default:Saturate.default_budgets;
  }

let stop_label (sp : Saturate.space) =
  Saturate.stop_reason_label sp.Saturate.stats.Saturate.stop

let saturate ?budgets ?target ~rules q =
  Saturate.saturate ?budgets
    ?target:(Option.map Term.Hc.of_query target)
    ~rules (Term.Hc.of_query q)

(* Chain of three fusable iterates with a mask-dead subtree glued on:
   r11 (iterate∘iterate fusion) has three viable positions, and the
   ⟨Kf 1, Kf 2⟩ leg has no Iterate head, so the index mask prunes it. *)
let masked_chain =
  Term.query
    (Term.chain
       [
         Term.Iterate (Term.Kp true, Term.Prim "city");
         Term.Iterate (Term.Kp true, Term.Prim "addr");
         Term.Iterate (Term.Kp true, Term.Id);
         Term.Pairf (Term.Kf (Value.Int 1), Term.Kf (Value.Int 2));
       ])
    (Value.Named "P")

(* Every node shape with children, with rule r2 (id ∘ f → f) firing in
   each child, so a walk that visits one shape's children out of order
   lists some of r2's positions out of order. *)
let every_shape =
  let open Term in
  let l = Compose (Id, Pi1) and r = Compose (Id, Pi2) in
  let pl = Oplus (Eq, l) and pr = Oplus (Leq, r) in
  Term.query
    (Term.chain
       [
         Con (Andp (Kp true, pl), l, r);
         Iterate (Orp (Inv pl, pr), l);
         Iter (Andp (pl, Cp (Conv pr, Value.Int 3)), r);
         Join (Oplus (pl, r), l);
         Nest (l, r);
         Unnest (l, r);
         Times (l, r);
         Cf (l, Value.Int 1);
         Pairf (l, r);
       ])
    (Value.Named "P")

(* The unpruned oracle for [Search.successors]: query rules first, then
   every function and predicate rule at each of its first [max_positions]
   positions, found by an unmasked [once_topdown] with a skip counter — no
   head masks, no rule skipping. *)
let unpruned_successors ~max_positions rules q =
  let hq = Term.Hc.of_query q in
  let at_kth r k =
    let remaining = ref k in
    let s tgt =
      match Rewrite.Strategy.of_rule r tgt with
      | Some t when !remaining = 0 -> Some t
      | Some _ ->
        decr remaining;
        None
      | None -> None
    in
    Option.map
      (fun hbody -> Term.Hc.to_query { hq with Term.Hc.hbody })
      (Rewrite.Strategy.apply_func (Rewrite.Strategy.once_topdown s)
         hq.Term.Hc.hbody)
  in
  let query_rules, other_rules =
    List.partition
      (fun r ->
        match Rewrite.Rule.patterns r with
        | Rewrite.Rule.Query_pats _ -> true
        | _ -> false)
      rules
  in
  List.filter_map
    (fun r ->
      Option.map (fun q' -> (r.Rewrite.Rule.name, q')) (fire_query r q))
    query_rules
  @ List.concat_map
      (fun r ->
        let rec collect k =
          if k >= max_positions then []
          else
            match at_kth r k with
            | Some q' -> (r.Rewrite.Rule.name, q') :: collect (k + 1)
            | None -> []
        in
        collect 0)
      other_rules

(* The matcher view's oracle: [Graph.nodes] with every later member of
   an already-seen canonical (operator, child classes) key dropped, in
   list order.  Quadratic, and independent of the graph's own key
   table. *)
let expected_view g cls =
  let key (n : Graph.enode) =
    (n.Graph.op, Array.map (Graph.find g) n.Graph.children)
  in
  let same (o1, c1) (o2, c2) = Lang.op_equal o1 o2 && c1 = c2 in
  let rec go seen = function
    | [] -> []
    | n :: rest ->
      let k = key n in
      if List.exists (same k) seen then go seen rest else n :: go (k :: seen) rest
  in
  go [] (Graph.nodes g cls)

(* Checks the view invariant on every live class of a canonicalized
   graph; returns how many members the views drop in total. *)
let check_views what g =
  let roots = Graph.class_roots g in
  let members =
    List.fold_left (fun acc c -> acc + List.length (Graph.nodes g c)) 0 roots
  in
  Alcotest.(check int) (what ^ ": nodes keep every member") (Graph.n_nodes g)
    members;
  List.fold_left
    (fun dropped c ->
      let view = Graph.match_view g c and want = expected_view g c in
      Alcotest.(check bool)
        (Fmt.str "%s: class %d view is nodes minus later copies" what c)
        true
        (List.compare_lengths view want = 0 && List.for_all2 ( == ) view want);
      dropped + List.length (Graph.nodes g c) - List.length view)
    0 roots

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let tests =
  [
    (* ---------------- union-find ---------------- *)
    case "union-find: fresh singletons, union, transitivity" (fun () ->
        let u = Uf.create () in
        let a = Uf.make u and b = Uf.make u in
        let c = Uf.make u and d = Uf.make u in
        Alcotest.(check int) "allocated" 4 (Uf.length u);
        List.iter
          (fun x -> Alcotest.(check int) "fresh element is its own root" x (Uf.find u x))
          [ a; b; c; d ];
        Alcotest.(check bool) "fresh classes distinct" false (Uf.same u a b);
        let r1 = Uf.union u a b in
        Alcotest.(check bool) "united" true (Uf.same u a b);
        Alcotest.(check int) "find a = surviving root" r1 (Uf.find u a);
        Alcotest.(check int) "find b = surviving root" r1 (Uf.find u b);
        ignore (Uf.union u c d);
        let r3 = Uf.union u a d in
        Alcotest.(check bool) "transitive" true (Uf.same u b c);
        Alcotest.(check int) "one root for all four" r3 (Uf.find u b);
        Alcotest.(check int) "re-union of same class is the identity" r3
          (Uf.union u b d);
        Alcotest.(check int) "length unchanged by unions" 4 (Uf.length u));
    case "union-find: growth across many elements stays consistent" (fun () ->
        let u = Uf.create ~capacity:2 () in
        let xs = List.init 200 (fun _ -> Uf.make u) in
        (* chain-union everything pairwise *)
        List.iteri
          (fun i x -> if i > 0 then ignore (Uf.union u (List.hd xs) x))
          xs;
        let root = Uf.find u (List.hd xs) in
        Alcotest.(check bool) "all in one class" true
          (List.for_all (fun x -> Uf.find u x = root) xs));
    (* ---------------- congruence rebuild ---------------- *)
    case "rebuild restores congruence one level up" (fun () ->
        let g = Graph.create () in
        let f x = Lang.Wf (Term.Hc.compose Term.Hc.id x) in
        let city = Term.Hc.prim "city" and addr = Term.Hc.prim "addr" in
        let ca = Graph.add_term g (Lang.Wf city) in
        let cb = Graph.add_term g (Lang.Wf addr) in
        let fa = Graph.add_term g (f city) in
        let fb = Graph.add_term g (f addr) in
        Graph.rebuild g;
        Alcotest.(check bool) "parents distinct before the union" false
          (Graph.find g fa = Graph.find g fb);
        ignore
          (Graph.union g ~ja:(Lang.Wf city) ~jb:(Lang.Wf addr)
             ~just:(Graph.Jrule "axiom") ca cb);
        Graph.rebuild g;
        Alcotest.(check bool) "children united" true
          (Graph.find g ca = Graph.find g cb);
        Alcotest.(check bool) "id∘city ≡ id∘addr by congruence" true
          (Graph.find g fa = Graph.find g fb));
    case "rebuild propagates congruence through nested parents" (fun () ->
        let g = Graph.create () in
        let f x = Term.Hc.compose Term.Hc.id x in
        let city = Term.Hc.prim "city" and addr = Term.Hc.prim "addr" in
        let ca = Graph.add_term g (Lang.Wf city) in
        let cb = Graph.add_term g (Lang.Wf addr) in
        let ffa = Graph.add_term g (Lang.Wf (f (f city))) in
        let ffb = Graph.add_term g (Lang.Wf (f (f addr))) in
        Graph.rebuild g;
        ignore
          (Graph.union g ~ja:(Lang.Wf city) ~jb:(Lang.Wf addr)
             ~just:(Graph.Jrule "axiom") ca cb);
        Graph.rebuild g;
        Alcotest.(check bool) "two congruence levels collapse in one rebuild"
          true
          (Graph.find g ffa = Graph.find g ffb);
        (* the explanation lifts the axiom through both operators and
           lands exactly on the target spelling *)
        let steps = Graph.explain g (Lang.Wf (f (f city))) (Lang.Wf (f (f addr))) in
        Alcotest.(check bool) "explanation is non-empty" true (steps <> []);
        let _, _, last = List.nth steps (List.length steps - 1) in
        Alcotest.(check bool) "explanation ends on the target term" true
          (Lang.wkey last = Lang.wkey (Lang.Wf (f (f addr)))));
    case "hash-consing: re-adding a term allocates nothing" (fun () ->
        let g = Graph.create () in
        let w = Lang.Wq (Term.Hc.of_func Paper.t1k_source.Term.body,
                         Term.Hc.of_value Paper.t1k_source.Term.arg) in
        let c1 = Graph.add_term g w in
        let n = Graph.n_nodes g in
        let c2 = Graph.add_term g w in
        Alcotest.(check int) "same class" (Graph.find g c1) (Graph.find g c2);
        Alcotest.(check int) "no new e-nodes" n (Graph.n_nodes g));
    (* ---------------- saturation budgets & stop reasons ---------------- *)
    case "saturation reports its stop reason, never silently" (fun () ->
        let trivial = Term.query Term.Id (Value.Named "P") in
        Alcotest.(check string) "no rule fires: saturated" "saturated"
          (stop_label (saturate ~rules:Rules.Catalog.all trivial));
        Alcotest.(check string) "zero iterations allowed" "iteration-budget"
          (stop_label
             (saturate
                ~budgets:
                  {
                    Saturate.max_enodes = 1_000_000;
                    max_iterations = 0;
                    max_millis = 1e9;
                  }
                ~rules:Rules.Catalog.all Paper.t1k_source));
        Alcotest.(check string) "tiny node budget" "node-budget"
          (stop_label
             (saturate
                ~budgets:
                  {
                    Saturate.max_enodes = 5;
                    max_iterations = 50;
                    max_millis = 1e9;
                  }
                ~rules:Rules.Catalog.all Paper.t1k_source));
        Alcotest.(check string) "equivalence query answered early"
          "target-found"
          (stop_label
             (saturate ~target:Paper.t1k_target ~rules:Rules.Catalog.all
                Paper.t1k_source)));
    (* ---------------- reaches: Figures 4 and 6 ---------------- *)
    case "egraph reaches T1K (Figure 4); replay validates step by step"
      (fun () ->
        match
          Search.reaches_steps ~config:(ecfg ()) Paper.t1k_source
            Paper.t1k_target
        with
        | None -> Alcotest.fail "T1K not reached by saturation"
        | Some steps ->
          Alcotest.(check bool) "derivation starts with rule 11" true
            (fst (List.hd steps) = "r11");
          Alcotest.check query "lands on the target"
            Paper.t1k_target
            (snd (List.nth steps (List.length steps - 1)));
          Alcotest.(check bool) "every step fires under the BFS checker" true
            (Search.validate_path Paper.t1k_source steps));
    case "egraph reaches T2K from the forward catalog alone" (fun () ->
        (* BFS needs rule 12 explicitly flipped; e-class equivalence is
           symmetric, so saturation finds the derivation from the
           forward-oriented catalog and replay emits the "-1" names. *)
        match
          Search.reaches_steps ~config:(ecfg ()) Paper.t2k_source
            Paper.t2k_target
        with
        | None -> Alcotest.fail "T2K not reached by saturation"
        | Some steps ->
          Alcotest.(check bool) "replay uses a flipped rule" true
            (List.exists
               (fun (r, _) -> Filename.check_suffix r "-1")
               steps);
          Alcotest.(check bool) "validated" true
            (Search.validate_path Paper.t2k_source steps));
    case "egraph reaches the K4 code motion (Figure 6), validated" (fun () ->
        match
          Search.reaches_steps ~config:(ecfg ()) Paper.k4 Paper.k4_optimized
        with
        | None -> Alcotest.fail "K4 not reached by saturation"
        | Some steps ->
          Alcotest.(check bool) "validated" true
            (Search.validate_path Paper.k4 steps));
    case "reaches (string form) agrees with reaches_steps" (fun () ->
        let config = ecfg () in
        match
          ( Search.reaches ~config Paper.t1k_source Paper.t1k_target,
            Search.reaches_steps ~config Paper.t1k_source Paper.t1k_target )
        with
        | Some names, Some steps ->
          Alcotest.(check (list string)) "same rule sequence" names
            (List.map fst steps)
        | _ -> Alcotest.fail "T1K not reached");
    (* ---------------- explore: extraction vs BFS ---------------- *)
    case "egraph extraction is never costlier than BFS at default depth"
      (fun () ->
        List.iter
          (fun (name, q) ->
            let bfs = Search.explore q in
            let eg = Search.explore ~config:(ecfg ()) q in
            Alcotest.(check bool)
              (Fmt.str "%s: egraph %.2f <= bfs %.2f" name
                 eg.Search.best.Search.cost bfs.Search.best.Search.cost)
              true
              (eg.Search.best.Search.cost
              <= bfs.Search.best.Search.cost +. 1e-9);
            Alcotest.(check bool) (name ^ ": BFS reports no saturation stats")
              true
              (bfs.Search.saturation = None);
            match eg.Search.saturation with
            | None -> Alcotest.fail (name ^ ": saturation stats missing")
            | Some s ->
              Alcotest.(check bool) (name ^ ": iterated") true
                (s.Saturate.iterations >= 1);
              Alcotest.(check bool) (name ^ ": e-classes <= e-nodes") true
                (s.Saturate.e_classes <= s.Saturate.e_nodes))
          [ ("T1K", Paper.t1k_source); ("K4", Paper.k4) ]);
    case "egraph explore recovers the fused T1K form with its derivation"
      (fun () ->
        let o = Search.explore ~config:(ecfg ()) Paper.t1k_source in
        Alcotest.check query "best is the fused form" Paper.t1k_target
          o.Search.best.Search.query;
        Alcotest.(check bool) "derivation replayed from the proof forest" true
          (o.Search.best.Search.path <> []));
    case "validate_path accepts K4's 222-step e-graph derivation" (fun () ->
        (* [validate_path] enumerates uncapped ([max_positions = max_int]),
           which an enumerator computing the cap plus one would wrap to a
           negative cap that finds no firing *)
        let o = Search.explore ~config:(ecfg ()) Paper.k4 in
        let sp = saturate ~rules:Rules.Catalog.all Paper.k4 in
        match
          Saturate.path_to sp
            (Saturate.wterm_of_query
               (Term.Hc.of_query o.Search.best.Search.query))
        with
        | None -> Alcotest.fail "K4's best plan is not in the source's class"
        | Some steps ->
          Alcotest.(check int) "the explored derivation" 222
            (List.length steps);
          Alcotest.(check (list string)) "the outcome's path"
            o.Search.best.Search.path (List.map fst steps);
          Alcotest.(check bool) "every step validates" true
            (Search.validate_path Paper.k4 steps));
    (* ---------------- determinism & scheduling ---------------- *)
    case "2 000-node saturation pins: K4 and KG1 counts and instances"
      (fun () ->
        (* The paper_search budget.  [instances] counts matches before
           the dedup against earlier iterations: the matcher sees each
           canonical e-node once (a full-list matcher, which re-matched
           every congruent copy, read 35 677 and 11 341 here), while
           every other count is what it was before the matcher view. *)
        let budgets = { Saturate.default_budgets with max_enodes = 2_000 } in
        let counts q =
          let s = (saturate ~budgets ~rules:Rules.Catalog.all q).Saturate.stats in
          Saturate.
            [
              s.e_nodes; s.e_classes; s.unions; s.iterations; s.instances;
              s.matches_skipped; s.rules_deferred;
            ]
        in
        let pin = Alcotest.(check (list int)) in
        pin "K4: nodes, classes, unions, iterations, instances, skipped, deferred"
          [ 2_000; 746; 1_254; 7; 4_638; 4_989; 5 ]
          (counts Paper.k4);
        pin "KG1: nodes, classes, unions, iterations, instances, skipped, deferred"
          [ 2_000; 464; 1_536; 6; 2_231; 5_487; 0 ]
          (counts Paper.kg1));
    case "matcher view: first member of each canonical key, nodes keep copies"
      (fun () ->
        (* E-matching reads [Graph.match_view]; precondition scans and
           witness deviations read [Graph.nodes], which must keep every
           congruent copy and its witness.  Dropping copies from [nodes]
           as well loses KG1's winning spelling, which "extraction
           regression pins: K4 and KG1 never lose to BFS" guards. *)
        let budgets =
          { Saturate.max_enodes = 2_000; max_iterations = 12; max_millis = 1e9 }
        in
        let sp = saturate ~budgets ~rules:Rules.Catalog.all Paper.k4 in
        Alcotest.(check bool) "K4: the views drop congruent copies" true
          (check_views "K4" sp.Saturate.graph > 0);
        (* Seeded random add / union / rebuild sequences over small
           function terms: unions of leaves make their parents congruent,
           and rebuild keeps both parents in the merged class. *)
        let dropped = ref 0 in
        for seed = 1 to 20 do
          let rng = Random.State.make [| seed |] in
          let leaves = Array.map Term.Hc.prim [| "a"; "b"; "c"; "d" |] in
          let rec term depth =
            if depth = 0 || Random.State.int rng 3 = 0 then
              leaves.(Random.State.int rng (Array.length leaves))
            else
              let l = term (depth - 1) and r = term (depth - 1) in
              match Random.State.int rng 3 with
              | 0 -> Term.Hc.compose l r
              | 1 -> Term.Hc.pairf l r
              | _ -> Term.Hc.times l r
          in
          let g = Graph.create () in
          let added = Array.init 40 (fun _ -> Lang.Wf (term 3)) in
          Array.iter (fun w -> ignore (Graph.add_term g w)) added;
          Alcotest.(check bool) "a view before the first canonicalize raises"
            true
            (raises_invalid (fun () -> Graph.match_view g 0));
          Graph.rebuild g;
          Graph.canonicalize g;
          for round = 1 to 6 do
            let pick () = added.(Random.State.int rng (Array.length added)) in
            let merged = ref false in
            for _ = 1 to 2 do
              let a = pick () and b = pick () in
              if
                Graph.union g ~ja:a ~jb:b ~just:(Graph.Jrule "axiom")
                  (Graph.add_term g a) (Graph.add_term g b)
              then merged := true
            done;
            let c = Option.get (Graph.find_term g added.(0)) in
            if !merged then
              Alcotest.(check bool) "a view after a union, before rebuild, raises"
                true
                (raises_invalid (fun () -> Graph.match_view g c));
            Graph.rebuild g;
            if !merged then
              Alcotest.(check bool)
                "a view after rebuild, before canonicalize, raises" true
                (raises_invalid (fun () -> Graph.match_view g c));
            Graph.canonicalize g;
            dropped :=
              !dropped + check_views (Fmt.str "seed %d round %d" seed round) g
          done;
          ignore (Graph.add_term g (Lang.Wf (Term.Hc.prim "fresh")));
          Alcotest.(check bool) "a view after a new e-node raises" true
            (raises_invalid (fun () ->
                 Graph.match_view g (Graph.add_term g added.(0))))
        done;
        Alcotest.(check bool) "random sequences: the views drop copies" true
          (!dropped > 0));
    case "extraction regression pins: K4 and KG1 never lose to BFS" (fun () ->
        (* K4's hoisted join is strictly cheaper than anything BFS finds
           at default depth; KG1's best spelling is weight-blind (the
           hoist is heavier under op_weight) and only survives through
           the witness-deviation front, so this pins both. *)
        let eg q = (Search.explore ~config:(ecfg ()) q).Search.best.Search.cost in
        let bfs q = Search.(explore q).best.Search.cost in
        let k4 = eg Paper.k4 in
        Alcotest.(check bool)
          (Fmt.str "K4 egraph cost %.2f <= 8.1" k4)
          true
          (k4 <= 8.1 +. 1e-6);
        let kg1_bfs = bfs Paper.kg1 and kg1_eg = eg Paper.kg1 in
        Alcotest.(check bool)
          (Fmt.str "KG1 egraph %.2f <= bfs %.2f" kg1_eg kg1_bfs)
          true
          (kg1_eg <= kg1_bfs +. 1e-9));
    case "extraction front spellings all land in the source's class" (fun () ->
        (* Every candidate the optimizer re-measures — weight bests,
           weight-optimum deviations, witness deviations around the
           source — must be provably equivalent to the source: re-adding
           its spelling to the graph finds the source's e-class. *)
        let budgets =
          { Saturate.max_enodes = 20_000; max_iterations = 4; max_millis = 1e9 }
        in
        let sp = saturate ~budgets ~rules:Rules.Catalog.all Paper.kg1 in
        let g = sp.Saturate.graph in
        let front = Saturate.extraction_front ~k:2 sp in
        Alcotest.(check bool) "front holds more than the source" true
          (List.length front > 1);
        List.iter
          (fun w ->
            let c = Graph.add_term g w in
            Graph.rebuild g;
            Alcotest.(check int) "same class as the source"
              (Graph.find g sp.Saturate.root)
              (Graph.find g c))
          front);
    (* ---------------- masked truncation regression ---------------- *)
    case "masked truncation: only viable positions clear the frontier flag"
      (fun () ->
        let r11 = Rules.Catalog.rules [ "r11" ] in
        let viable = List.length (Search.successors r11 masked_chain) in
        Alcotest.(check int) "three viable r11 positions" 3 viable;
        let exhausted_at mp =
          (Search.explore
             ~config:
               {
                 Search.default_config with
                 rules = r11;
                 max_positions = mp;
                 max_depth = 1;
                 max_states = 1_000;
               }
             masked_chain)
            .Search.stop = Search.Exhausted
        in
        (* the mask-pruned ⟨Kf 1, Kf 2⟩ subtree holds no position, so a cap
           at exactly the viable count truncates nothing *)
        Alcotest.(check bool) "cap = viable stays exhausted" true
          (exhausted_at viable);
        Alcotest.(check bool) "cap = viable - 1 truncates" false
          (exhausted_at (viable - 1)));
    case "mask-pruned successors match an unpruned plain walk" (fun () ->
        let check name mp q =
          let pruned = Search.successors ~max_positions:mp Rules.Catalog.all q in
          let plain = unpruned_successors ~max_positions:mp Rules.Catalog.all q in
          Alcotest.(check int)
            (Fmt.str "%s: same count at cap %d" name mp)
            (List.length plain) (List.length pruned);
          List.iter2
            (fun (r1, q1) (r2, q2) ->
              Alcotest.(check string) "same rule" r1 r2;
              Alcotest.check query "same successor" q1 q2)
            plain pruned
        in
        List.iter (fun mp -> check "masked chain" mp masked_chain)
          [ 0; 1; 2; 3; 4; 64 ];
        List.iter
          (fun (name, q) -> check name 64 q)
          [ ("T1K", Paper.t1k_source); ("K4", Paper.k4); ("KG1", Paper.kg1) ]);
    case
      "one-walk successors match the skip-counter oracle on 200 seeds, cold \
       and warm"
      (fun () ->
        (* Each seed's plan (and [every_shape], as seed -1) and every one
           of its successors, at each cap: once through a fresh
           enumerator, once through one whose memo the seed's earlier
           states (at every cap) have filled. *)
        let printed = List.map (fun (r, q) -> (r, Pretty.query_to_string q)) in
        let caps = [ 0; 1; 2; 3; 64 ] in
        for seed = -1 to 199 do
          let q0 =
            if seed < 0 then every_shape
            else Translate.Compile.query (Datagen.Queries.query ~seed ~depth:2)
          in
          let warm = Search.enumerator Rules.Catalog.all in
          List.iter
            (fun q ->
              List.iter
                (fun mp ->
                  let at what = Fmt.str "seed %d, cap %d: %s" seed mp what in
                  let oracle =
                    printed
                      (unpruned_successors ~max_positions:mp Rules.Catalog.all q)
                  in
                  Alcotest.(check (list (pair string string)))
                    (at "cold memo") oracle
                    (printed
                       (Search.successors ~max_positions:mp Rules.Catalog.all
                          q));
                  Alcotest.(check (list (pair string string)))
                    (at "warm memo") oracle
                    (printed (Search.successors_with ~max_positions:mp warm q)))
                caps)
            (q0 :: List.map snd (Search.successors Rules.Catalog.all q0))
        done);
  ]

let props =
  let open QCheck in
  let random_query i depth =
    Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)
  in
  let arb depth =
    QCheck.make
      ~print:(fun i -> Kola.Pretty.query_to_string (random_query i depth))
      QCheck.Gen.(int_bound 1_000_000)
  in
  let small_budgets =
    { Saturate.max_enodes = 4_000; max_iterations = 8; max_millis = 500. }
  in
  [
    Test.make ~count:20
      ~name:
        "saturated egraph extraction is never costlier than BFS exploration"
      (arb 2)
      (fun i ->
        let q = random_query i 2 in
        let bfs =
          Search.explore
            ~config:
              { Search.default_config with max_depth = 2; max_states = 60 }
            q
        in
        let eg =
          Search.explore ~config:(ecfg ~budgets:small_budgets ()) q
        in
        match eg.Search.saturation with
        | None -> false
        | Some s ->
          (* extraction always covers the source itself, budget or not;
             the <= BFS claim holds whenever the space fully saturated *)
          s.Saturate.stop <> Saturate.Saturated
          || eg.Search.best.Search.cost
             <= bfs.Search.best.Search.cost +. 1e-9);
    Test.make ~count:20
      ~name:"egraph reaches agrees with BFS on one-step rewrites" (arb 2)
      (fun i ->
        let q = random_query i 2 in
        match Search.successors Rules.Catalog.all q with
        | [] -> true
        | (_, q') :: _ -> (
          match
            Search.reaches_steps ~config:(ecfg ~budgets:small_budgets ()) q q'
          with
          | Some steps -> Search.validate_path q steps
          | None -> false));
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
