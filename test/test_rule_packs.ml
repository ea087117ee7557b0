(* Runtime-loadable COKO rule packs: load, certify (exhaustively at small
   scope), persist certificates, and search with pack rules shadowing the
   compiled-in catalog — with identical outcomes when the pack is a
   textual restatement of catalog rules. *)

open Util
module Cert = Rules.Cert
module Pack = Coko.Pack
module Search = Optimizer.Search

let exhaustive (v : Cert.verdict) =
  match v.Cert.vmode with Cert.Exhaustive _ -> true | Cert.Sampled -> false

(* A pack that textually restates catalog rules (r1, r2, r5, r11 — the
   T1K winning derivation fires r11 and r5, so shadowing is actually
   exercised on the winning path). *)
let restatement_src =
  "-- catalog restatement, rule for rule\n\
   RULE r1: ?f o id --> ?f\n\
   RULE r2: id o ?f --> ?f\n\
   RULE r5: Kp(T) & ?p --> ?p\n\
   RULE r11: iterate(?p, ?f) o iterate(?q, ?g)\n\
  \         --> iterate(?q & (?p (+) ?g), ?f o ?g)\n"

let r13_pack_src =
  "RULE r13-pack: ?p (+) <?f, Kf(?k)> --> Cp(?p^-1, ?k) (+) ?f\n"

let tests =
  [
    case "the shipped catalog/figure8.coko file admits as a pack" (fun () ->
        let pack = Pack.load (coko_file "catalog/figure8.coko") in
        match Pack.admit pack with
        | Error _ -> Alcotest.fail "expected admission"
        | Ok a ->
          Alcotest.(check (list string)) "the catalog's Figure 8 rules"
            (List.map (fun (r : Rewrite.Rule.t) -> r.Rewrite.Rule.name)
               Rules.Catalog.figure8)
            (List.map (fun (v : Cert.verdict) -> v.Cert.name) a.Pack.verdicts);
          Alcotest.check Alcotest.bool "all verdicts ok" true
            (List.for_all (fun (v : Cert.verdict) -> v.Cert.ok) a.Pack.verdicts);
          Alcotest.(check (list string)) "sampled where the scope is too large"
            [ "r17"; "r17b"; "r24" ]
            (List.filter_map
               (fun (v : Cert.verdict) ->
                 if exhaustive v then None else Some v.Cert.name)
               a.Pack.verdicts));
    case "a precondition-using pack certifies exhaustively" (fun () ->
        let pack = Pack.load (coko_file "inj_inter.coko") in
        match Pack.admit pack with
        | Error _ -> Alcotest.fail "expected admission"
        | Ok a -> (
          match a.Pack.verdicts with
          | [ v ] ->
            Alcotest.check Alcotest.bool "ok" true v.Cert.ok;
            Alcotest.check Alcotest.bool "exhaustive" true (exhaustive v);
            Alcotest.check Alcotest.bool "instances pruned by precondition"
              true
              (v.Cert.vinstances > 0)
          | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)));
    case "a restated catalog rule has the catalog rule's fingerprint" (fun () ->
        let pack = Pack.of_string restatement_src in
        List.iter
          (fun (r : Rewrite.Rule.t) ->
            let catalog = Rules.Catalog.find_exn r.Rewrite.Rule.name in
            Alcotest.check Alcotest.string r.Rewrite.Rule.name
              (Cert.fingerprint catalog) (Cert.fingerprint r))
          (Pack.rules pack));
    case "pack shadowing preserves search outcomes on both engines" (fun () ->
        let pack = Pack.of_string restatement_src in
        let rules =
          Pack.shadow ~base:Rules.Catalog.all (Pack.rules pack)
        in
        List.iter
          (fun engine ->
            List.iter
              (fun (name, q) ->
                let explore rules =
                  Search.explore
                    ~config:{ Search.default_config with engine; rules }
                    q
                in
                let base = explore Search.default_config.Search.rules in
                let packed = explore rules in
                let label what =
                  Fmt.str "%s/%s %s"
                    (match engine with
                    | Search.Bfs -> "bfs"
                    | Search.Egraph -> "egraph")
                    name what
                in
                Alcotest.check query (label "plan")
                  base.Search.best.Search.query packed.Search.best.Search.query;
                Alcotest.check (Alcotest.float 1e-9) (label "cost")
                  base.Search.best.Search.cost packed.Search.best.Search.cost;
                Alcotest.check Alcotest.(list string) (label "path")
                  base.Search.best.Search.path packed.Search.best.Search.path)
              [ ("t1k", Kola.Paper.t1k_source); ("k4", Kola.Paper.k4) ])
          [ Search.Bfs; Search.Egraph ])
    ;
    case "the paper's printed rule 13 as a pack is rejected" (fun () ->
        let pack = Pack.of_string r13_pack_src in
        match Pack.admit pack with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error a -> (
          match Pack.rejected a with
          | [ v ] ->
            Alcotest.check Alcotest.bool "refuted" false v.Cert.ok;
            Alcotest.check Alcotest.string "same defect the catalog records"
              (Cert.fingerprint (r13_paper ()))
              v.Cert.fingerprint;
            (match v.Cert.reason with
            | Some reason ->
              Alcotest.check Alcotest.bool "counterexample surfaced" true
                (contains reason "?f :=")
            | None -> Alcotest.fail "expected a rendered counterexample")
          | vs ->
            Alcotest.failf "expected one rejection, got %d" (List.length vs)));
    case "certificates persist: cold misses, warm load hits" (fun () ->
        let path = Filename.temp_file "kola-cert" ".cache" in
        let pack = Pack.load (coko_file "inj_inter.coko") in
        let cold = Cert.Cache.load path in
        (match Pack.admit ~cache:cold pack with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "cold admission failed");
        Cert.Cache.save cold;
        Alcotest.check Alcotest.int "cold run misses once" 1
          (Cert.Cache.misses cold);
        Alcotest.check Alcotest.int "cold run never hits" 0
          (Cert.Cache.hits cold);
        let warm = Cert.Cache.load path in
        (match Pack.admit ~cache:warm pack with
        | Ok a ->
          Alcotest.check Alcotest.bool "verdict replayed from cache" true
            (List.for_all
               (fun (v : Cert.verdict) -> v.Cert.from_cache)
               a.Pack.verdicts)
        | Error _ -> Alcotest.fail "warm admission failed");
        Alcotest.check Alcotest.int "warm run hits once" 1
          (Cert.Cache.hits warm);
        Alcotest.check Alcotest.int "warm run never misses" 0
          (Cert.Cache.misses warm);
        Sys.remove path);
    case "certification is seed-stable" (fun () ->
        let rule = Rules.Catalog.find_exn "r9" in
        let run () = Cert.certify ~seed:7 ~samples:25 ~inputs:8 rule in
        let a = run () and b = run () in
        Alcotest.check Alcotest.int "instances" a.Cert.instances
          b.Cert.instances;
        Alcotest.check Alcotest.int "checks" a.Cert.checks b.Cert.checks;
        Alcotest.check Alcotest.bool "verdict" (Cert.certified a)
          (Cert.certified b));
    case "the sampler draws deterministically from a seeded rng" (fun () ->
        let draw () =
          let rng = Datagen.Store.rng 11 in
          List.init 20 (fun _ ->
              Cert.value_of_ty rng Kola.Ty.(Set (Pair (Int, Int))))
        in
        Alcotest.check
          Alcotest.(list (option value))
          "same seed, same values" (draw ()) (draw ()));
    case "fingerprints ignore the rule name" (fun () ->
        let r1 = Rules.Catalog.find_exn "r1" in
        let renamed = { r1 with Rewrite.Rule.name = "anything-else" } in
        Alcotest.check Alcotest.string "equal" (Cert.fingerprint r1)
          (Cert.fingerprint renamed));
    case "an RHS-only hole is a positioned load error" (fun () ->
        match Pack.of_string "RULE bad: id o ?f --> ?g\n" with
        | exception Coko.Syntax.Error msg ->
          Alcotest.check Alcotest.bool "line number" true
            (contains msg "line 1");
          Alcotest.check Alcotest.bool "names the hole" true
            (contains msg "?g is never bound")
        | _ -> Alcotest.fail "expected a load error");
    case "an unknown precondition hole is a positioned load error" (fun () ->
        match
          Pack.of_string "GIVEN injective(?g)\nRULE b3: id o ?f --> ?f\n"
        with
        | exception Coko.Syntax.Error msg ->
          Alcotest.check Alcotest.bool "line number" true
            (contains msg "line 2");
          Alcotest.check Alcotest.bool "names the hole" true
            (contains msg "unknown hole ?g")
        | _ -> Alcotest.fail "expected a load error");
    case "an unknown property is a positioned load error" (fun () ->
        match Pack.of_string "GIVEN bogus(?f)\nRULE b4: id o ?f --> ?f\n" with
        | exception Coko.Syntax.Error msg ->
          Alcotest.check Alcotest.bool "lists accepted names" true
            (contains msg "unknown property bogus"
            && contains msg "injective")
        | _ -> Alcotest.fail "expected a load error");
    case "shadow replaces in place and appends new rules" (fun () ->
        let base = Rules.Catalog.rules [ "r1"; "r2"; "r3" ] in
        let pack = Pack.of_string restatement_src in
        let shadowed = Pack.shadow ~base (Pack.rules pack) in
        Alcotest.check
          Alcotest.(list string)
          "order preserved, new rules appended"
          [ "r1"; "r2"; "r3"; "r5"; "r11" ]
          (List.map (fun (r : Rewrite.Rule.t) -> r.Rewrite.Rule.name) shadowed));
    case "a truncated, malformed, random or version-skewed cache recovers"
      (fun () ->
        let pack = Pack.load (coko_file "catalog/figure8.coko") in
        let n = List.length (Pack.rules pack) in
        Alcotest.(check int) "the Figure 8 rules" 11 n;
        let admit cache =
          match Pack.admit ~cache pack with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "admission failed"
        in
        let write path s =
          Out_channel.with_open_bin path (fun oc -> output_string oc s)
        in
        (* A good cache file to cut up and re-header. *)
        let good = Filename.temp_file "kola-cert" ".cache" in
        let c = Cert.Cache.load good in
        admit c;
        Cert.Cache.save c;
        let text = In_channel.with_open_bin good In_channel.input_all in
        Sys.remove good;
        let header, entries =
          match String.index_opt text '\n' with
          | Some i ->
            (String.sub text 0 (i + 1),
             String.sub text (i + 1) (String.length text - i - 1))
          | None -> Alcotest.fail "saved cache has no header line"
        in
        let first_entry_len =
          Option.value ~default:(String.length entries)
            (String.index_opt entries '\n')
        in
        let rng = Random.State.make [| 7 |] in
        let bad =
          [
            ("cut off mid-entry",
             header ^ String.sub entries 0 (first_entry_len / 2));
            ("malformed entries",
             header
             ^ "not an entry\n\
                0123abcd certified exhaustive@x 1 2 \"\"\n\
                0123abcd maybe sampled 1 2 \"\"\n\
                0123abcd certified sampled one two \"\"\n");
            ("random bytes",
             String.init 4096 (fun _ -> Char.chr (Random.State.int rng 256)));
            ("another cert_version", "kola-cert-cache 999\n" ^ entries);
          ]
        in
        List.iter
          (fun (what, contents) ->
            let path = Filename.temp_file "kola-cert" ".cache" in
            write path contents;
            let cold = Cert.Cache.load path in
            admit cold;
            Alcotest.(check int) (what ^ ": every rule misses") n
              (Cert.Cache.misses cold);
            Alcotest.(check int) (what ^ ": nothing hits") 0
              (Cert.Cache.hits cold);
            Cert.Cache.save cold;
            let warm = Cert.Cache.load path in
            admit warm;
            Alcotest.(check int) (what ^ ": rewritten file hits") n
              (Cert.Cache.hits warm);
            Alcotest.(check int) (what ^ ": rewritten file never misses") 0
              (Cert.Cache.misses warm);
            Sys.remove path)
          bad);
  ]
