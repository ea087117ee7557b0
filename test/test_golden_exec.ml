(* Frozen outcomes of the compiled executor on the ledger's eleven OQL
   queries.

   Each query is optimized as the ledger's [oql_small] workload does it
   (OQL text, a fresh plan cache, a 10^3-row store of data seed 77), and
   its chosen plan runs compiled under the row and the columnar layout
   at jobs 1: on those stores, and on the stale-copy stores whose set
   elements are other copies of extent objects or lie outside every
   extent ({!Util.stale_paper_db}, {!Util.stale_company_db}).  For every
   run the table pins what the executor did and what it returned: the
   column kernels and degrade reasons, the tuples/probes/builds it
   charged, whether it fell back, an MD5 of its IR and an MD5 of its
   result printed field by field.  A refactor of [lib/exec] that keeps
   every row computes the same thing with the same work. *)

open Kola
open Util
module Exec = Kola_exec.Exec
module Pipeline = Optimizer.Pipeline

type schema = Paper | Company

(* The ledger's queries ([bench/ledger/oql_work.ml]), in its order. *)
let queries =
  [
    ("t1", Paper, "select a.city from a in (select p.addr from p in P)");
    ("t2", Paper, "select x.age from x in P where x.age > 25");
    ( "a4",
      Paper,
      "select [p, (select c from c in p.child where p.age > 25)] from p in P"
    );
    ( "garage",
      Paper,
      "select [v, flatten(select p.grgs from p in P where v in p.cars)] from \
       v in V" );
    ("dept_roster", Company, Datagen.Company.dept_roster_oql);
    ("mentor_pool", Company, Datagen.Company.mentor_pool_oql);
    ("city_salaries", Company, Datagen.Company.city_salaries_oql);
    ("payroll", Company, Datagen.Company.payroll_oql);
    ("rich_mentors", Company, Datagen.Company.rich_mentors_oql);
    ("local_staff", Company, Datagen.Company.local_staff_oql);
    ("mentor_elite", Company, Datagen.Company.mentor_elite_oql);
  ]

let paper_1k = Datagen.Store.scaled ~seed:77 1_000
let company_1k = Datagen.Company.scaled ~seed:77 1_000

let plans =
  lazy
    (List.map
       (fun (name, schema, src) ->
         let extents, db =
           match schema with
           | Paper -> (None, Datagen.Store.db paper_1k)
           | Company -> (Some [ "E"; "D" ], Datagen.Company.db company_1k)
         in
         let report =
           Pipeline.optimize ~source:src
             ~plan_cache:(Optimizer.Cost.plan_cache ())
             ~db
             (Oql.Parser.parse ?extents src)
         in
         (name, schema, report.Pipeline.chosen.Pipeline.query))
       queries)

(* The two store pairs, by schema: the ledger's 10^3 stores with their
   columnar views, and the stale-copy stores. *)
let stores =
  lazy
    (let stale_paper = stale_paper_db () and stale_company = stale_company_db () in
     [
       ( "1k",
         function
         | Paper -> (Datagen.Store.db paper_1k, Datagen.Store.columnar paper_1k)
         | Company ->
           (Datagen.Company.db company_1k, Datagen.Company.columnar company_1k) );
       ( "stale",
         let p = (stale_paper, Colstore.of_db stale_paper)
         and c = (stale_company, Colstore.of_db stale_company) in
         function Paper -> p | Company -> c );
     ])

(* A result printed with every object's fields, so a run that emits the
   wrong copy of an object prints differently. *)
let rec print_deep b (v : Value.t) =
  let seq l r xs =
    Buffer.add_string b l;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        print_deep b x)
      xs;
    Buffer.add_string b r
  in
  match v with
  | Value.Obj { cls; oid; fields } ->
    Printf.bprintf b "%s#%d{" cls oid;
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "%s=" k;
        print_deep b x)
      fields;
    Buffer.add_char b '}'
  | Value.Pair (x, y) -> seq "[" "]" [ x; y ]
  | Value.Set xs -> seq "{" "}" xs
  | Value.Bag xs -> seq "{|" "|}" xs
  | Value.List xs -> seq "<" ">" xs
  | v -> Buffer.add_string b (Value.to_string v)

let md5 s = Digest.to_hex (Digest.string s)

type golden = {
  kernels : int;
  degrades : string list;
  work : int * int * int;  (** tuples, probes, builds *)
  fell_back : bool;
  ir : string;  (** MD5 of [Ir.to_string] *)
  result : string;  (** MD5 of the result printed field by field *)
}

(* A run either returns, or fails with the interpreter's message (t1
   reads an attribute the stale paper store's persons lack). *)
type outcome = Ran of golden | Fails of { ir : string; error : string }

let observe ~layout ~db ~coldb q =
  let coldb = match layout with Exec.Row -> None | Exec.Columnar -> Some coldb in
  let ir = md5 (Kola_exec.Ir.to_string (Exec.ir (Exec.compile ?coldb q))) in
  match Exec.run ~backend:Exec.Compiled ~layout ~jobs:1 ?coldb ~db q with
  | exception Eval.Error error -> Fails { ir; error }
  | v, st ->
    let b = Buffer.create 4096 in
    print_deep b v;
    Ran
      {
        kernels = st.Exec.col_kernels;
        degrades = st.Exec.col_degrades;
        work = (st.Exec.tuples, st.Exec.probes, st.Exec.builds);
        fell_back = st.Exec.fell_back;
        ir;
        result = md5 (Buffer.contents b);
      }

(* (query, store, layout) -> outcome, recorded before the executor's
   predicate and function compilers were merged. *)
let expected : ((string * string * string) * outcome) list =
  [
    ( ("t1", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (2000, 0, 0);
          fell_back = false;
          ir = "d573dece4d6fe50fd0538f13c69f6579";
          result = "f7c7327ccd1c0bc9ba931072415b86ed";
        } );
    ( ("t2", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1697, 0, 0);
          fell_back = false;
          ir = "2839d099b0b1740ab789e14d0d7c932f";
          result = "7259393bbb60c92307a6c3b8ff20ce8f";
        } );
    ( ("a4", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (3502, 0, 0);
          fell_back = false;
          ir = "6bf7fe742e3ea10853c7f1a265681837";
          result = "a700d20f8cfb0f429a3d6c7a7105bfd5";
        } );
    ( ("garage", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1950, 1500, 2021);
          fell_back = false;
          ir = "5d4f4e4d5d2255066fb5b50ff530915b";
          result = "fb3c618511b8cbaebe64e0b86a5aacef";
        } );
    ( ("dept_roster", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (2000, 16, 2000);
          fell_back = false;
          ir = "896b36d8dc466c1b453d0baa58768719";
          result = "62eaa154a106ab1d99bbde531f4a606e";
        } );
    ( ("mentor_pool", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (2000, 16, 2525);
          fell_back = false;
          ir = "d2e42672cb1773aab5b5acbd13f7b405";
          result = "fa1fd547a400d860250862738b811262";
        } );
    ( ("city_salaries", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1501, 0, 0);
          fell_back = false;
          ir = "dc9553980c2ef13106354a638d4f54da";
          result = "9916958e5302c50747483783eec392b4";
        } );
    ( ("payroll", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1456, 0, 0);
          fell_back = false;
          ir = "455bea0eb8372fd69bc53a8d3557624e";
          result = "484f61a85ea8d6273040ae5408bd262d";
        } );
    ( ("rich_mentors", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (3280, 0, 0);
          fell_back = false;
          ir = "e1d324e74cc85a0710a6d46594f0c79a";
          result = "65d7092aebd871590be86e0c87ddd778";
        } );
    ( ("local_staff", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1008, 0, 0);
          fell_back = false;
          ir = "776fa4e2dcd155561b33a2457d8cf710";
          result = "99914b932bd37a50b983c5e7c90ae93b";
        } );
    ( ("mentor_elite", "1k", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (4570, 1525, 45);
          fell_back = false;
          ir = "1e1aa155b66662e1aa09c495bc37c514";
          result = "b2bf12f438abbd8d6a6b3a999ee2a86e";
        } );
    ( ("t1", "1k", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (2000, 0, 0);
          fell_back = false;
          ir = "d573dece4d6fe50fd0538f13c69f6579";
          result = "f7c7327ccd1c0bc9ba931072415b86ed";
        } );
    ( ("t2", "1k", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (0, 0, 0);
          fell_back = false;
          ir = "2839d099b0b1740ab789e14d0d7c932f";
          result = "7259393bbb60c92307a6c3b8ff20ce8f";
        } );
    ( ("a4", "1k", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (1000, 0, 0);
          fell_back = false;
          ir = "6bf7fe742e3ea10853c7f1a265681837";
          result = "a700d20f8cfb0f429a3d6c7a7105bfd5";
        } );
    ( ("garage", "1k", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (1021, 750, 1000);
          fell_back = false;
          ir = "5d4f4e4d5d2255066fb5b50ff530915b";
          result = "fb3c618511b8cbaebe64e0b86a5aacef";
        } );
    ( ("dept_roster", "1k", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (1000, 8, 1000);
          fell_back = false;
          ir = "896b36d8dc466c1b453d0baa58768719";
          result = "62eaa154a106ab1d99bbde531f4a606e";
        } );
    ( ("mentor_pool", "1k", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (1525, 8, 1000);
          fell_back = false;
          ir = "d2e42672cb1773aab5b5acbd13f7b405";
          result = "fa1fd547a400d860250862738b811262";
        } );
    ( ("city_salaries", "1k", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (501, 0, 0);
          fell_back = false;
          ir = "dc9553980c2ef13106354a638d4f54da";
          result = "9916958e5302c50747483783eec392b4";
        } );
    ( ("payroll", "1k", "columnar"),
      Ran
        {
          kernels = 3;
          degrades = [];
          work = (228, 0, 0);
          fell_back = false;
          ir = "455bea0eb8372fd69bc53a8d3557624e";
          result = "484f61a85ea8d6273040ae5408bd262d";
        } );
    ( ("rich_mentors", "1k", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (2525, 0, 0);
          fell_back = false;
          ir = "e1d324e74cc85a0710a6d46594f0c79a";
          result = "65d7092aebd871590be86e0c87ddd778";
        } );
    ( ("local_staff", "1k", "columnar"),
      Ran
        {
          kernels = 0;
          degrades = ["filter over E not columnar"];
          work = (1008, 0, 0);
          fell_back = false;
          ir = "776fa4e2dcd155561b33a2457d8cf710";
          result = "99914b932bd37a50b983c5e7c90ae93b";
        } );
    ( ("mentor_elite", "1k", "columnar"),
      Ran
        {
          kernels = 4;
          degrades = [];
          work = (3570, 1525, 45);
          fell_back = false;
          ir = "1e1aa155b66662e1aa09c495bc37c514";
          result = "b2bf12f438abbd8d6a6b3a999ee2a86e";
        } );
    ( ("t1", "stale", "row"),
      Fails
        {
          ir = "d573dece4d6fe50fd0538f13c69f6579";
          error = "object Person#0 has no attribute addr";
        } );
    ( ("t2", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (9, 0, 0);
          fell_back = false;
          ir = "2839d099b0b1740ab789e14d0d7c932f";
          result = "0b211892f2fb206174a15293eeb5960d";
        } );
    ( ("a4", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (12, 0, 0);
          fell_back = false;
          ir = "6bf7fe742e3ea10853c7f1a265681837";
          result = "91902f373fe422c8d95a7cdda694dd9b";
        } );
    ( ("garage", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (10, 10, 10);
          fell_back = false;
          ir = "5d4f4e4d5d2255066fb5b50ff530915b";
          result = "8969ea8abbbae161a4fb737c7a9a382f";
        } );
    ( ("dept_roster", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (600, 16, 600);
          fell_back = false;
          ir = "896b36d8dc466c1b453d0baa58768719";
          result = "8c6d4cf8cbece59ab797ac5c57451db2";
        } );
    ( ("mentor_pool", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (600, 16, 814);
          fell_back = false;
          ir = "d2e42672cb1773aab5b5acbd13f7b405";
          result = "3a4eb51b29dff4f814e49f34559f209e";
        } );
    ( ("city_salaries", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (447, 0, 0);
          fell_back = false;
          ir = "dc9553980c2ef13106354a638d4f54da";
          result = "9916958e5302c50747483783eec392b4";
        } );
    ( ("payroll", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (434, 0, 0);
          fell_back = false;
          ir = "455bea0eb8372fd69bc53a8d3557624e";
          result = "60ce091a98b43116129523c121aebd95";
        } );
    ( ("rich_mentors", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1302, 0, 0);
          fell_back = false;
          ir = "e1d324e74cc85a0710a6d46594f0c79a";
          result = "52513fc402c5d1db173518a7f8a21825";
        } );
    ( ("local_staff", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (308, 0, 0);
          fell_back = false;
          ir = "776fa4e2dcd155561b33a2457d8cf710";
          result = "99914b932bd37a50b983c5e7c90ae93b";
        } );
    ( ("mentor_elite", "stale", "row"),
      Ran
        {
          kernels = 0;
          degrades = [];
          work = (1424, 451, 10);
          fell_back = false;
          ir = "1e1aa155b66662e1aa09c495bc37c514";
          result = "305217d6ab241a5e9b6a42a311764dc7";
        } );
    ( ("t1", "stale", "columnar"),
      Fails
        {
          ir = "d573dece4d6fe50fd0538f13c69f6579";
          error = "object Person#0 has no attribute addr";
        } );
    ( ("t2", "stale", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (0, 0, 0);
          fell_back = false;
          ir = "2839d099b0b1740ab789e14d0d7c932f";
          result = "0b211892f2fb206174a15293eeb5960d";
        } );
    ( ("a4", "stale", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (5, 0, 0);
          fell_back = false;
          ir = "6bf7fe742e3ea10853c7f1a265681837";
          result = "91902f373fe422c8d95a7cdda694dd9b";
        } );
    ( ("garage", "stale", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (5, 5, 5);
          fell_back = false;
          ir = "5d4f4e4d5d2255066fb5b50ff530915b";
          result = "8969ea8abbbae161a4fb737c7a9a382f";
        } );
    ( ("dept_roster", "stale", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (300, 8, 300);
          fell_back = false;
          ir = "896b36d8dc466c1b453d0baa58768719";
          result = "8c6d4cf8cbece59ab797ac5c57451db2";
        } );
    ( ("mentor_pool", "stale", "columnar"),
      Ran
        {
          kernels = 1;
          degrades = [];
          work = (514, 8, 300);
          fell_back = false;
          ir = "d2e42672cb1773aab5b5acbd13f7b405";
          result = "3a4eb51b29dff4f814e49f34559f209e";
        } );
    ( ("city_salaries", "stale", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (147, 0, 0);
          fell_back = false;
          ir = "dc9553980c2ef13106354a638d4f54da";
          result = "9916958e5302c50747483783eec392b4";
        } );
    ( ("payroll", "stale", "columnar"),
      Ran
        {
          kernels = 3;
          degrades = [];
          work = (67, 0, 0);
          fell_back = false;
          ir = "455bea0eb8372fd69bc53a8d3557624e";
          result = "60ce091a98b43116129523c121aebd95";
        } );
    ( ("rich_mentors", "stale", "columnar"),
      Ran
        {
          kernels = 2;
          degrades = [];
          work = (814, 0, 0);
          fell_back = false;
          ir = "e1d324e74cc85a0710a6d46594f0c79a";
          result = "52513fc402c5d1db173518a7f8a21825";
        } );
    ( ("local_staff", "stale", "columnar"),
      Ran
        {
          kernels = 0;
          degrades = ["filter over E not columnar"];
          work = (308, 0, 0);
          fell_back = false;
          ir = "776fa4e2dcd155561b33a2457d8cf710";
          result = "99914b932bd37a50b983c5e7c90ae93b";
        } );
    ( ("mentor_elite", "stale", "columnar"),
      Ran
        {
          kernels = 4;
          degrades = [];
          work = (1124, 451, 10);
          fell_back = false;
          ir = "1e1aa155b66662e1aa09c495bc37c514";
          result = "305217d6ab241a5e9b6a42a311764dc7";
        } );
  ]

let check_store store_name layout () =
  let stores = List.assoc store_name (Lazy.force stores) in
  List.iter
    (fun (name, schema, q) ->
      let db, coldb = stores schema in
      let what = Fmt.str "%s on the %s store, %s" name store_name (Exec.layout_name layout) in
      match
        ( List.assoc_opt (name, store_name, Exec.layout_name layout) expected,
          observe ~layout ~db ~coldb q )
      with
      | None, _ -> Alcotest.failf "%s: no golden row" what
      | Some (Ran want), Ran got ->
        Alcotest.(check int) (what ^ ": col_kernels") want.kernels got.kernels;
        Alcotest.(check (list string)) (what ^ ": col_degrades") want.degrades got.degrades;
        Alcotest.(check (triple int int int))
          (what ^ ": tuples, probes, builds")
          want.work got.work;
        Alcotest.(check bool) (what ^ ": fell_back") want.fell_back got.fell_back;
        Alcotest.(check string) (what ^ ": IR digest") want.ir got.ir;
        Alcotest.(check string) (what ^ ": result digest") want.result got.result
      | Some (Fails want), Fails got ->
        Alcotest.(check string) (what ^ ": IR digest") want.ir got.ir;
        Alcotest.(check string) (what ^ ": error") want.error got.error
      | Some (Ran _), Fails { error; _ } -> Alcotest.failf "%s: fails with %s" what error
      | Some (Fails { error; _ }), Ran _ ->
        Alcotest.failf "%s: returns where it failed with %s" what error)
    (Lazy.force plans)

let tests =
  List.concat_map
    (fun store ->
      List.map
        (fun layout ->
          case
            (Fmt.str "ledger plans on the %s stores, %s layout, jobs 1" store
               (Exec.layout_name layout))
            (check_store store layout))
        [ Exec.Row; Exec.Columnar ])
    [ "1k"; "stale" ]
