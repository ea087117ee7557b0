(* Shared fixtures and Alcotest testables. *)

open Kola

let tiny = Datagen.Store.tiny ()
let tiny_db = Datagen.Store.db tiny

let gen_store = Datagen.Store.generate Datagen.Store.default_params
let gen_db = Datagen.Store.db gen_store

let store ~people ~vehicles ~seed =
  Datagen.Store.db
    (Datagen.Store.generate
       { Datagen.Store.default_params with people; vehicles; seed })

(* kolaopt's default sample store *)
let cli_db = store ~people:40 ~vehicles:30 ~seed:42

(* a small store on which generated queries cost in the tens to hundreds *)
let seed_db = store ~people:12 ~vehicles:8 ~seed:7

(* A paper-schema store whose set elements are stale copies (same
   identity, other fields than the extent row) or lie outside every
   extent.  Each stale object has one copy, used everywhere, so dedup
   cannot choose between copies. *)
let stale_paper_db () =
  let addr i city =
    Value.obj ~cls:"Address" ~oid:i [ ("city", Value.str city) ]
  in
  let addrs = List.init 4 (fun i -> addr i (Fmt.str "city-%d" i)) in
  let stale_addr = addr 1 "stale-city" in
  let vehicle i =
    Value.obj ~cls:"Vehicle" ~oid:i [ ("make", Value.str (Fmt.str "m%d" i)) ]
  in
  let vehicles = List.init 5 vehicle in
  let ghost_car = vehicle 99 (* in no extent *) in
  let person ?(name = "") i ~age ~child ~cars ~grgs =
    Value.obj ~cls:"Person" ~oid:i
      [
        ("name", Value.str (if name = "" then Fmt.str "p%d" i else name));
        ("age", Value.int age);
        ("child", Value.set child);
        ("cars", Value.set cars);
        ("grgs", Value.set grgs);
      ]
  in
  let kid i = person ~name:"stale-kid" i ~age:1 ~child:[] ~cars:[] ~grgs:[] in
  let v = List.nth vehicles and a = List.nth addrs in
  let persons =
    [
      person 0 ~age:40 ~child:[ kid 2; kid 3 ] ~cars:[ v 0; v 1 ]
        ~grgs:[ a 0; stale_addr ];
      person 1 ~age:20 ~child:[ kid 3 ] ~cars:[ v 1; ghost_car ]
        ~grgs:[ stale_addr ];
      person 2 ~age:30 ~child:[] ~cars:[ ghost_car ] ~grgs:[ a 2 ];
      person 3 ~age:50 ~child:[ kid 0 ] ~cars:[ v 1; v 4 ] ~grgs:[];
      person 4 ~age:60 ~child:[] ~cars:[] ~grgs:[ a 3; stale_addr ];
    ]
  in
  [
    ("P", Value.set persons);
    ("V", Value.set vehicles);
    ("A", Value.set addrs);
  ]

(* The company schema's stale-copy store: mentors are stale copies of
   their extent rows, and every fifth employee has a mentor in no
   extent.  Each stale object has one copy, used everywhere, so dedup
   cannot choose between copies. *)
let stale_company_db ?(employees = 300) () =
  let base = Datagen.Company.scaled ~seed:77 employees in
  let employees =
    match List.assoc "E" (Datagen.Company.db base) with
    | Value.Set es -> es
    | _ -> assert false
  in
  let field o k = List.assoc k o.Value.fields in
  (* odd mentors are stale (another salary, another name), even ones keep
     their name but not their salary; oid 100 000 is in no extent *)
  let stale = Hashtbl.create 64 in
  let stale_copy (m : Value.t) =
    match m with
    | Value.Obj o -> (
      match Hashtbl.find_opt stale o.Value.oid with
      | Some c -> c
      | None ->
        let c =
          Value.obj ~cls:"Employee" ~oid:o.Value.oid
            [
              ( "ename",
                if o.Value.oid mod 2 = 1 then Value.str "stale"
                else field o "ename" );
              ("salary", Value.int (160_000 - (o.Value.oid * 97 mod 120_000)));
              ("dept", field o "dept");
              ("mentors", Value.set []);
            ]
        in
        Hashtbl.replace stale o.Value.oid c;
        c)
    | _ -> assert false
  in
  let ghost =
    Value.obj ~cls:"Employee" ~oid:100_000
      [
        ("ename", Value.str "ghost");
        ("salary", Value.int 200_000);
        ("dept", Value.Unit);
        ("mentors", Value.set []);
      ]
  in
  let employees =
    List.map
      (function
        | Value.Obj o ->
          let mentors =
            match field o "mentors" with
            | Value.Set ms -> List.map stale_copy ms
            | _ -> assert false
          in
          let mentors = if o.Value.oid mod 5 = 0 then ghost :: mentors else mentors in
          Value.obj ~cls:"Employee" ~oid:o.Value.oid
            (List.map
               (fun (k, v) ->
                 if k = "mentors" then (k, Value.set mentors) else (k, v))
               o.Value.fields)
        | _ -> assert false)
      employees
  in
  [ ("E", Value.set employees); List.nth (Datagen.Company.db base) 1 ]

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let func : Term.func Alcotest.testable =
  Alcotest.testable Pretty.pp_func Term.equal_func_assoc

let pred : Term.pred Alcotest.testable =
  Alcotest.testable Pretty.pp_pred Term.equal_pred_assoc

let query : Term.query Alcotest.testable =
  Alcotest.testable Pretty.pp_query Term.equal_query_assoc

let ty : Ty.t Alcotest.testable = Alcotest.testable Ty.pp Ty.equal

let aqua : Aqua.Ast.expr Alcotest.testable =
  Alcotest.testable Aqua.Pretty.pp Aqua.Vars.alpha_equal

let eval_tiny ?backend q = Eval.eval_query ~db:tiny_db ?backend q
let eval_gen ?backend q = Eval.eval_query ~db:gen_db ?backend q

(* Resolve Named extents so results compare structurally. *)
let resolved db v = Eval.deep_resolve (Eval.ctx ~db ()) v

let check_sem_equal ?(db = tiny_db) msg q1 q2 =
  Alcotest.check value msg
    (resolved db (Eval.eval_query ~db q1))
    (resolved db (Eval.eval_query ~db q2))

let int i = Value.Int i
let pair = Value.pair
let set = Value.set

let case name f = Alcotest.test_case name `Quick f

(* Substring check for error-message assertions. *)
let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Run the paper's tiny store through an AQUA expr and a KOLA query and
   compare. *)
let check_translation ?(db = tiny_db) msg e =
  let q = Translate.Compile.query e in
  Alcotest.check value msg
    (resolved db (Aqua.Eval.eval_closed ~db e))
    (resolved db (Eval.eval_query ~db q))

(* Rules fire on interned terms; these convert a plain target at the test
   boundary and hand back the plain view of the result. *)
let fire_func ?schema r f =
  Option.map Term.Hc.to_func
    (Rewrite.Rule.apply_func ?schema r (Term.Hc.of_func f))

let fire_pred ?schema r p =
  Option.map Term.Hc.to_pred
    (Rewrite.Rule.apply_pred ?schema r (Term.Hc.of_pred p))

let fire_query ?schema r q =
  Option.map Term.Hc.to_query
    (Rewrite.Rule.apply_query ?schema r (Term.Hc.of_query q))

(* A file under the repository's coko/ directory, from wherever dune runs
   the tests. *)
let coko_file name =
  List.find Sys.file_exists
    (List.map
       (fun up -> up ^ "coko/" ^ name)
       [ ""; "../"; "../../"; "../../../" ])

(* The paper's printed rule 13, kept as a pack the certifier must reject. *)
let r13_paper () =
  match Coko.Pack.rules (Coko.Pack.load (coko_file "unsound/r13_paper.coko")) with
  | [ r ] -> r
  | rs -> Alcotest.failf "r13_paper.coko: expected one rule, got %d" (List.length rs)

(* A compiled run under [Deferred] dedup, which the compiler leaves to
   the hashed interpreter: the run falls back, names the reason, is
   counted, and returns what [Eval] returns under Hashed/Deferred. *)
let check_deferred_fallback ?layout ?jobs ?coldb ~db name q =
  let module Exec = Kola_exec.Exec in
  let before = Exec.fallback_count () in
  let v, st =
    Exec.run ~backend:Exec.Compiled ~dedup:Eval.Deferred ?layout ?jobs ?coldb
      ~db q
  in
  Alcotest.(check bool) (name ^ ": deferred falls back") true st.Exec.fell_back;
  Alcotest.(check bool)
    (name ^ ": and names the reason")
    true
    (match st.Exec.fallback_reason with
    | Some r -> contains r "deferred"
    | None -> false);
  Alcotest.(check bool)
    (name ^ ": the fallback is counted")
    true
    (Exec.fallback_count () > before);
  Alcotest.(check bool)
    (name ^ ": ≡ interp (hashed, deferred)")
    true
    (Exec.agree ~db v
       (Eval.eval_query ~db ~backend:Eval.Hashed ~dedup:Eval.Deferred q))
