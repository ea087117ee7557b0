(* Frozen rewrite outputs: the oracle for the one interned rewrite core.

   Matching, substitution, rule application and traversal once existed
   twice, over plain terms and over interned ones, each a line-by-line
   mirror of the other.  The values below were recorded by running the
   plain-term implementation (and, for successor sets, its unpruned plain
   walk) before it was deleted; the interned core must reproduce them.

   - [pipeline]: the rules [Pipeline.optimize] fires (COKO [simplify] then
     the hidden-join blocks) and the printed normalized and untangled
     queries, for the ledger's eleven OQL queries and for T1K, T2K, K4 and
     KG1 run through the same two stages.
   - [paper_runs]: [Engine.run ~fuel:40 Rules.Catalog.all] attempts and
     firings on T1K, T2K, K4 and KG1.
   - [engine_runs]: per seed of the depth-3 generator, the rules
     [Engine.run ~fuel:25] fires, a digest of the printed normal form, and
     the attempts count.
   - [successor_sets]: per seed of the depth-2 generator, the count and a
     digest of [Search.successors ~max_positions:64]. *)

open Kola
open Util
module Engine = Rewrite.Engine
module Strategy = Rewrite.Strategy
module Hc = Term.Hc

let pipeline =
  [
    ("t1",
     "",
     {|iterate(Kp(T), city) ∘ iterate(Kp(T), addr) ! P|},
     None);
    ("t2",
     "",
     {|iterate(Kp(T), age) ∘ iterate((gt ⊕ ⟨age, Kf(25)⟩), id) ! P|},
     None);
    ("a4",
     "r17b r17b r2 r3 r18 r2 r2 r3 r18 r1",
     {|iterate(Kp(T),
        ⟨id,
           iter(Kp(T), π2) ∘
           ⟨id,
              iter((gt ⊕ ⟨age ∘ π1, Kf(25)⟩), π2) ∘
              ⟨id, child⟩⟩⟩)
! P|},
     None);
    ("garage",
     "r17 r17b r2 r3 r18 r2 r2 r3 r18 r1 r19 r20 r20 r21 r3 r24 r24 r5 r4 r6t r5c r1 r1 hk-times-l hk-times-l",
     {|iterate(Kp(T),
        ⟨id,
           flat ∘
           iter(Kp(T), grgs ∘ π2) ∘
           ⟨id,
              iter((in ⊕ ⟨π1, cars ∘ π2⟩), π2) ∘ ⟨id, Kf(P)⟩⟩⟩)
! V|},
     Some {|nest(π1, π2) ∘
(unnest(π1, π2) × id) ∘
⟨join((in ⊕ (id × cars)), (id × grgs)), π1⟩
! [V, P]|});
    ("dept_roster",
     "r17 r17b r2 r3 r18 r2 r2 r3 r18 r1 r19 r20 r20 r21 r3 r24 r24 r5 r4 r6t r5c r1 r1 hk-times-l",
     {|iterate(Kp(T),
        ⟨id,
           flat ∘
           iter(Kp(T), sng ∘ ename ∘ π2) ∘
           ⟨id,
              iter((eq ⊕ ⟨dept ∘ π2, π1⟩), π2) ∘ ⟨id, Kf(E)⟩⟩⟩)
! D|},
     Some {|nest(π1, π2) ∘
(unnest(π1, π2) × id) ∘
⟨join((eq ⊕ ⟨dept ∘ π2, π1⟩), (id × (sng ∘ ename))), π1⟩
! [D, E]|});
    ("mentor_pool",
     "r17 r17b r2 r3 r18 r2 r2 r3 r18 r1 r19 r20 r20 r21 r3 r24 r24 r5 r4 r6t r5c r1 r1 hk-times-l",
     {|iterate(Kp(T),
        ⟨id,
           flat ∘
           iter(Kp(T), mentors ∘ π2) ∘
           ⟨id,
              iter((eq ⊕ ⟨dept ∘ π2, π1⟩), π2) ∘ ⟨id, Kf(E)⟩⟩⟩)
! D|},
     Some {|nest(π1, π2) ∘
(unnest(π1, π2) × id) ∘
⟨join((eq ⊕ ⟨dept ∘ π2, π1⟩), (id × mentors)), π1⟩
! [D, E]|});
    ("city_salaries",
     "",
     {|iterate(Kp(T), dcity ∘ dept) ∘
iterate((gt ⊕ ⟨salary, Kf(90000)⟩), id)
! E|},
     None);
    ("payroll",
     "",
     {|sum ∘
iter(Kp(T), salary ∘ π2) ∘
⟨id,
   iter((gt ⊕ ⟨salary ∘ π2, Kf(120000)⟩), π2) ∘ ⟨id, Kf(E)⟩⟩
! ()|},
     None);
    ("rich_mentors",
     "r17b r17b r2 r3 r18 r2 r2 r3 r18 r1",
     {|iterate(Kp(T),
        ⟨id,
           iter(Kp(T), π2) ∘
           ⟨id,
              iter((gt ⊕ ⟨salary ∘ π2, salary ∘ π1⟩), π2) ∘
              ⟨id, mentors⟩⟩⟩)
! E|},
     None);
    ("local_staff",
     "",
     {|iterate(Kp(T), ename) ∘
iterate((in ⊕
         ⟨dept,
            iter(Kp(T), π2) ∘
            ⟨id,
               iter((eq ⊕ ⟨dcity ∘ π2, Kf("Boston")⟩), π2) ∘
               ⟨id, Kf(D)⟩⟩⟩),
        id)
! E|},
     None);
    ("mentor_elite",
     "",
     {|inter ∘
⟨flat ∘
   iter(Kp(T), iter(Kp(T), ename ∘ π2) ∘ ⟨id, mentors ∘ π2⟩) ∘
   ⟨id, Kf(E)⟩,
   iter(Kp(T), ename ∘ π2) ∘
   ⟨id,
      iter((gt ⊕ ⟨salary ∘ π2, Kf(145000)⟩), π2) ∘
      ⟨id, Kf(E)⟩⟩⟩
! ()|},
     None);
    ("T1K",
     "",
     {|iterate(Kp(T), city) ∘ iterate(Kp(T), addr) ! P|},
     None);
    ("T2K",
     "",
     {|iterate(Kp(T), age) ∘ iterate((gt ⊕ ⟨age, Kf(25)⟩), id) ! P|},
     None);
    ("K4",
     "r17b r2 r3 r18 r2",
     {|iterate(Kp(T),
        ⟨id,
           iter((gt ⊕ ⟨age ∘ π1, Kf(25)⟩), π2) ∘ ⟨id, child⟩⟩)
! P|},
     None);
    ("KG1",
     "r17 r17b r2 r3 r18 r2 r2 r3 r18 r1 r19 r20 r20 r21 r3 r24 r24 r5 r4 r6t r5c r1 r1 hk-times-l hk-times-l",
     {|iterate(Kp(T),
        ⟨id,
           flat ∘
           iter(Kp(T), grgs ∘ π2) ∘
           ⟨id,
              iter((in ⊕ ⟨π1, cars ∘ π2⟩), π2) ∘ ⟨id, Kf(P)⟩⟩⟩)
! V|},
     Some {|nest(π1, π2) ∘
(unnest(π1, π2) × id) ∘
⟨join((in ⊕ (id × cars)), (id × grgs)), π1⟩
! [V, P]|});
  ]

let paper_runs =
  [
    ("T1K", 68, 3);
    ("T2K", 159, 6);
    ("K4", 504, 40);
    ("KG1", 549, 40);
  ]

let engine_runs =
  [
    (0, "r11 r11 r5 r4 r4 r5c r1 r1", "162a57224e807aa0f101b9cf23993c12", 127);
    (1, "r11 r5 r4 r1 r18", "c630decbdf2dd7dc6c1865fee87ab051", 36);
    (2, "r11 r11 r5 r4 r4 r5c r1 r1", "c002ddd5ef13d7393959ce9db36e44f0", 127);
    (3, "r11 r4 r5c r1", "752a4271e27bbbe51979307e92f76ca8", 338);
    (4, "r11 r11 r5 r4 hk-demorgan-and hk-inv-inv r13 hk-cp-def r4 r5c r1 r1", "62d7132dc5ca6afbf8e9f35e5f2f4346", 377);
    (5, "r11 r5 r4 r1", "a4eb55d85a55f68ae91e341d14ccc124", 38);
    (6, "", "33f5ee47e91e21cc7e7ea0a78c93808a", 44);
    (7, "r11 r4 r5c r1", "43297038781337253966bd5a336e26bc", 135);
    (8, "r11 r11 r5 r4 r4 r5c r1 r1", "9689dec94746c9c579e14faaa861a306", 323);
    (9, "r11 r11 r5 r4 r4 r5c r1 r1", "fb8be165eb8602ee75121bcbbc4d0ef8", 815);
    (10, "r11 r11 r5 r4 r4 r5c r1 r1", "d3e83bb48dee77649617d7f7dc72debe", 515);
    (11, "r11 r11 r5 r4 r13 hk-cp-def hk-conv-conv hk-inv-inv hk-inv-inv r13 hk-cp-def r4 r5c r1 r1 hk-inv-inv r13 r14 hk-cp-def hk-conv-conv", "da1d99f2c8930bcd9f6f9316769ef104", 2684);
    (12, "r11 r4 r5c r1", "9a28d34fbe57ee5361fe5792d649106e", 98);
    (13, "r11 r4 r5c r1", "c681e2c0ff51e0a27a232e9f6ab21f25", 249);
    (14, "r11 r13 hk-cp-def hk-conv-eq r4 r5c r1", "9ae7264ee83b4cc21f69d4642308c2de", 209);
    (15, "r11 r5 r4 r1", "a4eb55d85a55f68ae91e341d14ccc124", 38);
    (16, "r11 r5 r4 r1 hk-inv-inv", "5b7ad59079003cffc027626268c1bc3d", 295);
    (17, "r11 r11 r5 r4 r13 hk-cp-def hk-conv-eq r4 r5c r1 r1", "fc8f0bb246d55ff534e0d2e72df30196", 226);
    (18, "r11 r4 r5c r1", "def34dab0944cb46683946b29a4a31ff", 131);
    (19, "r11 r5 r4 r1 r18", "c630decbdf2dd7dc6c1865fee87ab051", 36);
    (20, "r11 x-and-assoc hk-inv-inv hk-inv-inv x-and-assoc x-and-assoc r13 hk-cp-def r13 hk-cp-def hk-inv-inv r4 r5c r1", "605f02855c41db9cf144c29571df78ad", 890);
    (21, "r11 r11 r5 r4 x-and-assoc r13 hk-cp-def hk-conv-conv r13 hk-cp-def hk-conv-eq r4 r5c r1 r1", "dbfa67430e303acb62a9b01b53411b7e", 549);
    (22, "r11 r5 r4 r1", "a4eb55d85a55f68ae91e341d14ccc124", 38);
    (23, "r11 r5 r4 r1", "06c6399d90fd82a775685a5233d09516", 38);
    (24, "r11 r11 r5 r4 r4 r5c r1 r1", "60c5dce2d8ca53969d2059f9ddd740c5", 745);
    (25, "", "d8856c472fb34be8cfe27399e0251fd6", 12);
    (26, "r11 r4 r5c r1", "287efafcf0216387804df6c9317a55c5", 125);
    (27, "r11 r4 r5c r1", "c002ddd5ef13d7393959ce9db36e44f0", 83);
    (28, "r11 r11 r5 r4 x-and-assoc r4 r5c r1 r1", "10b63fbfa8491edf8a29d35775c3fafc", 266);
    (29, "r11 r11 r5 r4 r4 r5c r1 r1", "54e2355464964399c945602a2e883a2f", 127);
    (30, "r11 r11 r5 r4 r4 r5c r1 r1", "5383b85a78a2cebe6f8601034361e526", 132);
    (31, "", "a4eb55d85a55f68ae91e341d14ccc124", 7);
    (32, "", "a4eb55d85a55f68ae91e341d14ccc124", 7);
    (33, "r11 r11 r5 r4 x-and-assoc x-and-assoc x-and-assoc x-and-assoc hk-inv-inv hk-demorgan-and hk-inv-inv hk-inv-inv r4 r5c r1 r1", "df94a063836ff4bf4cc7f96a53ad9988", 1146);
    (34, "r11 r11 r5 r4 x-and-assoc x-and-assoc hk-inv-inv r4 r5c r1 r1", "bd035f8cc9dad9646e46f7f43263e5c8", 485);
    (35, "r11 r11 r5 r4 hk-inv-inv hk-inv-inv r4 r5c r1 r1 r13 r14 hk-cp-def r13 r14 hk-cp-def hk-conv-eq", "fe67e17dc0b0a2fc78113a95ef17d3e3", 1274);
    (36, "r11 r11 r5 r4 r4 r5c r1 r1", "54e2355464964399c945602a2e883a2f", 127);
    (37, "r11 r11 r5 r4 r13 hk-cp-def r4 r5c r1 r1", "3b958b181cb8c6aec5bbe2182f87caa1", 216);
    (38, "r11 r4 r5c r1", "4e8572ee3268cb36600c5e396279b3c6", 217);
    (39, "r11 r11 r5 r4 r4 r5c r1 r1", "7066c53ed484d1c4c8d01d501d7285e2", 164);
    (40, "r11 r11 r5 r4 r4 r5c r1 r1", "54e2355464964399c945602a2e883a2f", 127);
    (41, "", "5a46705ee513cf21e1d006e82507371e", 17);
    (42, "r11 r5 r4 r1", "a4eb55d85a55f68ae91e341d14ccc124", 38);
    (43, "", "e4f892d02d01fbbdfa139b65731b1b20", 54);
    (44, "r11 r11 r5 r4 x-and-assoc x-and-assoc hk-inv-inv x-and-assoc r13 hk-cp-def hk-conv-eq r13 hk-cp-def hk-conv-eq x-and-assoc x-and-assoc r13 hk-cp-def hk-inv-inv r4 r5c r1 r1", "32fa139be3c2308484d2a65db56d556c", 1738);
    (45, "r11 r11 r5 r4 r4 r5c r1 r1", "86b73de98fce3022a04b9e62fafdb5b9", 132);
    (46, "r11 r11 r5 r4 r4 r5c r1 r1", "1d63b03058b6188c23b751e01649d719", 332);
    (47, "", "a4eb55d85a55f68ae91e341d14ccc124", 7);
    (48, "r11 hk-inv-inv x-and-assoc x-and-assoc hk-inv-inv r13 hk-cp-def x-and-assoc hk-demorgan-and x-and-assoc hk-inv-inv r4 r5c r1", "afe1761658275da32e55fc329a827fcf", 1051);
    (49, "r11 r11 r5 r4 hk-inv-inv r13 r14 hk-cp-def hk-conv-eq r4 r5c r1 r1", "a50cf7bcd4134652f2affc95ed00a4e7", 1646);
  ]

let successor_sets =
  [
    (0, 7, "237912d7e6670d75aef8916297acfb16");
    (1, 5, "1b013546dbcc8cb4f1487b37e13e1217");
    (2, 7, "471b073f999a5fdba3358b5487caeb70");
    (3, 1, "0d5a1c1c9d654d116af62c2696aba6c1");
    (4, 9, "e99a21703bf21c3dd6e9f11358e658dc");
    (5, 2, "8637678227ba2cd6d177e8a4ca4a0e84");
    (6, 0, "d41d8cd98f00b204e9800998ecf8427e");
    (7, 1, "8461f69941f3c2dd007056ef39bd4ccf");
    (8, 7, "b9af35fa7bf77ab59dcf412525ebc741");
    (9, 7, "6c8ce8a28cde47ae81b135cd44e8bfe9");
    (10, 3, "b21d25aa1ce882f08e47e36d5b7e1d3d");
    (11, 2, "a9b117a9834ea62342cbf9ed9799240f");
    (12, 1, "53d4831fef151d93c2d01f4e6b5dff4d");
    (13, 2, "ed9b1a44965bee09eefdce27ce8bb7ca");
    (14, 3, "0952af8227a6f11528816539fec45078");
    (15, 2, "8637678227ba2cd6d177e8a4ca4a0e84");
    (16, 8, "44a81ffd7ff55efa0e708ca7d05d8f90");
    (17, 8, "c9759313036c30bb4c04d9bdf4b2166b");
    (18, 1, "6d2a106d6c3299c6477ff75011d05d6f");
    (19, 5, "1b013546dbcc8cb4f1487b37e13e1217");
    (20, 8, "efbf3da1d6d0dfd2cf1e2333d6db83a4");
    (21, 9, "e475dedda41b372b21f9a9c1f0f07119");
    (22, 2, "8637678227ba2cd6d177e8a4ca4a0e84");
    (23, 2, "30c004bdf3a8aa678c5333411b792beb");
    (24, 2, "a9b117a9834ea62342cbf9ed9799240f");
    (25, 0, "d41d8cd98f00b204e9800998ecf8427e");
    (26, 1, "e310e6a0e864252442e0e934262e92c1");
    (27, 1, "7a7cdc2326f37bc262b24e25a4b3df0a");
    (28, 7, "2a745b6d2ddba2a4c521437852c4ce3c");
    (29, 8, "78496c0f4f6f4123ebcc094a11936512");
    (30, 2, "bebb405de79252e5bc800bbc7856418c");
    (31, 0, "d41d8cd98f00b204e9800998ecf8427e");
    (32, 0, "d41d8cd98f00b204e9800998ecf8427e");
    (33, 14, "02c335302f4d88613fb9226d212d6a5f");
    (34, 9, "00d1b5e4f2ca0b414444427f6eb52ded");
    (35, 0, "d41d8cd98f00b204e9800998ecf8427e");
    (36, 8, "78496c0f4f6f4123ebcc094a11936512");
    (37, 8, "25db63f4e204052a90ee008cdbcaae89");
    (38, 2, "a9b117a9834ea62342cbf9ed9799240f");
    (39, 7, "6698856ff6196ac7bdb845fc815b5da3");
    (40, 7, "3e351fe0c16a5dbb1aaea9968bbc8725");
    (41, 2, "ef27cb40370ee627325ba9feac9e2f43");
    (42, 2, "8637678227ba2cd6d177e8a4ca4a0e84");
    (43, 9, "9d04cf2a7e004ccffe04c7adf05d2f76");
    (44, 14, "938a29d36bb16e8b6e8c9d78d5e75729");
    (45, 7, "327fdc91b0abb3adcf55ae833231386d");
    (46, 7, "b6c5bd9131cfadb5b7e83ffd94e8cbcb");
    (47, 0, "d41d8cd98f00b204e9800998ecf8427e");
    (48, 9, "ec4a33187c208f34616964e54c69a04c");
    (49, 3, "ea44a7cf67088976b943766c492d2f90");
  ]

let ledger_queries =
  let paper name src = (name, src, None) in
  let company name src = (name, src, Some [ "E"; "D" ]) in
  [
    paper "t1" "select a.city from a in (select p.addr from p in P)";
    paper "t2" "select x.age from x in P where x.age > 25";
    paper "a4"
      "select [p, (select c from c in p.child where p.age > 25)] from p in P";
    paper "garage"
      "select [v, flatten(select p.grgs from p in P where v in p.cars)] from v \
       in V";
    company "dept_roster" Datagen.Company.dept_roster_oql;
    company "mentor_pool" Datagen.Company.mentor_pool_oql;
    company "city_salaries" Datagen.Company.city_salaries_oql;
    company "payroll" Datagen.Company.payroll_oql;
    company "rich_mentors" Datagen.Company.rich_mentors_oql;
    company "local_staff" Datagen.Company.local_staff_oql;
    company "mentor_elite" Datagen.Company.mentor_elite_oql;
  ]

let paper_queries =
  [ ("T1K", Paper.t1k_source); ("T2K", Paper.t2k_source); ("K4", Paper.k4);
    ("KG1", Paper.kg1) ]

let company_db = Datagen.Company.db (Datagen.Company.scaled ~seed:77 60)
let pq = Pretty.query_to_string
let digest q = Digest.to_hex (Digest.string (pq q))
let names trace =
  String.concat " " (List.map (fun s -> s.Engine.rule_name) trace)

let random_query seed depth =
  Translate.Compile.query (Datagen.Queries.query ~seed ~depth)

let seeds = List.init 50 Fun.id

(* name -> (fired rules, normalized, untangled), through the pipeline's
   two COKO stages. *)
let optimized () =
  List.map
    (fun (name, src, extents) ->
      let db = if extents = None then tiny_db else company_db in
      let r = Optimizer.Pipeline.optimize_oql ?extents ~db src in
      ( name,
        ( names r.Optimizer.Pipeline.trace,
          pq r.Optimizer.Pipeline.normalized,
          Option.map pq r.Optimizer.Pipeline.untangled ) ))
    ledger_queries
  @ List.map
      (fun (name, q) ->
        let o1 = Coko.Block.run Coko.Programs.simplify q in
        let o2, blocks = Coko.Programs.hidden_join o1.Coko.Block.query in
        ( name,
          ( names (o1.Coko.Block.trace @ o2.Coko.Block.trace),
            pq o1.Coko.Block.query,
            if List.for_all snd blocks then Some (pq o2.Coko.Block.query)
            else None ) ))
      paper_queries

(* Every function and predicate node of an interned term, once each,
   walked where the rewriter descends (never into constant values). *)
let subterms (f : Hc.fnode) =
  let seen = Hashtbl.create 64 and acc = ref [] in
  let visit key tgt k =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      acc := tgt :: !acc;
      k ()
    end
  in
  let rec func (f : Hc.fnode) =
    visit (`F f.Hc.fid) (Strategy.F f) @@ fun () ->
    match f.Hc.fshape with
    | Hc.HCompose (a, b) | Hc.HPairf (a, b) | Hc.HTimes (a, b)
    | Hc.HNest (a, b) | Hc.HUnnest (a, b) -> func a; func b
    | Hc.HCf (a, _) -> func a
    | Hc.HCon (p, a, b) -> pred p; func a; func b
    | Hc.HIterate (p, a) | Hc.HIter (p, a) | Hc.HJoin (p, a) -> pred p; func a
    | _ -> ()
  and pred (p : Hc.pnode) =
    visit (`P p.Hc.pid) (Strategy.P p) @@ fun () ->
    match p.Hc.pshape with
    | Hc.HOplus (q, f) -> pred q; func f
    | Hc.HAndp (q, r) | Hc.HOrp (q, r) -> pred q; pred r
    | Hc.HInv q | Hc.HConv q | Hc.HCp (q, _) -> pred q
    | _ -> ()
  in
  func f;
  !acc

let tests =
  [
    case "pipeline fires the recorded rules on the ledger and paper queries"
      (fun () ->
        let got = optimized () in
        List.iter
          (fun (name, fired, normalized, untangled) ->
            let g_fired, g_norm, g_unt = List.assoc name got in
            Alcotest.(check string) (name ^ ": rules fired") fired g_fired;
            Alcotest.(check string) (name ^ ": normalized") normalized g_norm;
            Alcotest.(check (option string)) (name ^ ": untangled") untangled
              g_unt)
          pipeline);
    case "Engine.run reports the recorded attempts and firings" (fun () ->
        List.iter
          (fun (name, attempts, firings) ->
            let q = List.assoc name paper_queries in
            let o = Engine.run ~fuel:40 Rules.Catalog.all q in
            Alcotest.(check (pair int int))
              (name ^ ": attempts, firings")
              (attempts, firings)
              (o.Engine.stats.Engine.attempts, o.Engine.stats.Engine.firings))
          paper_runs);
    case "Engine.run reproduces the recorded derivations on 50 seeds"
      (fun () ->
        List.iter
          (fun (seed, fired, normal_form, attempts) ->
            let q = random_query seed 3 in
            let o = Engine.run ~fuel:25 Rules.Catalog.all q in
            let at what = Fmt.str "seed %d: %s" seed what in
            Alcotest.(check string) (at "rules fired") fired
              (names o.Engine.trace);
            Alcotest.(check string) (at "normal form digest") normal_form
              (digest o.Engine.query);
            Alcotest.(check int) (at "attempts") attempts
              o.Engine.stats.Engine.attempts)
          engine_runs);
    case "Search.successors reproduces the recorded sets on 50 seeds"
      (fun () ->
        List.iter
          (fun (seed, count, sets) ->
            let succ =
              Optimizer.Search.successors ~max_positions:64 Rules.Catalog.all
                (random_query seed 2)
            in
            let at what = Fmt.str "seed %d: %s" seed what in
            Alcotest.(check int) (at "successor count") count
              (List.length succ);
            let lines = List.map (fun (n, q) -> n ^ "\t" ^ pq q ^ "\n") succ in
            Alcotest.(check string) (at "successor digest") sets
              (Digest.to_hex (Digest.string (String.concat "" lines))))
          successor_sets);
    case "head dispatch offers every rule that fires" (fun () ->
        (* the corpora above, plus every intermediate state of the
           depth-3 derivations *)
        let queries =
          List.map snd paper_queries
          @ List.concat_map
              (fun seed ->
                let q = random_query seed 3 in
                let o = Engine.run ~fuel:25 Rules.Catalog.all q in
                (random_query seed 2 :: q
                :: List.map (fun s -> s.Engine.result) o.Engine.trace))
              seeds
        in
        let nodes =
          List.concat_map (fun q -> subterms (Hc.of_query q).Hc.hbody) queries
        in
        let fired = ref 0 in
        List.iter
          (fun tgt ->
            List.iter
              (fun (r : Rewrite.Rule.t) ->
                if Strategy.of_rule r tgt <> None then begin
                  incr fired;
                  if not (Engine.offered r tgt) then
                    Alcotest.failf "%s fires at %s but is not offered"
                      r.Rewrite.Rule.name
                      (match tgt with
                      | Strategy.F f -> Pretty.func_to_string (Hc.to_func f)
                      | Strategy.P p -> Pretty.pred_to_string (Hc.to_pred p))
                end)
              Rules.Catalog.all)
          nodes;
        Alcotest.(check bool) "some rule fires somewhere" true (!fired > 0));
    case "the dispatch table lists exactly the rules offered at each node"
      (fun () ->
        (* the catalog, a query rule among them, plus r1 read backwards
           (?f → ?f ∘ id): a hole-rooted rule offered at every function
           node, holes included *)
        let rules =
          Rules.Catalog.all
          @ [ Rewrite.Rule.flip (List.hd (Rules.Catalog.rules [ "r1" ])) ]
        in
        let d = Engine.dispatch rules in
        let nodes =
          Strategy.F (Hc.fhole "f")
          :: Strategy.P (Hc.phole "p")
          :: List.concat_map
               (fun q -> subterms (Hc.of_query q).Hc.hbody)
               (List.map snd paper_queries
               @ List.map (fun seed -> random_query seed 3) seeds)
        in
        List.iter
          (fun tgt ->
            let want =
              List.concat
                (List.mapi
                   (fun i r -> if Engine.offered r tgt then [ i ] else [])
                   rules)
            in
            let got =
              match tgt with
              | Strategy.F f -> Engine.offered_func d f
              | Strategy.P p -> Engine.offered_pred d p
            in
            Alcotest.(check (list int)) "the offered rules, in order" want
              (Array.to_list got))
          nodes);
  ]
