(* Golden search outcomes: the BFS results of the paper's KOLA queries at
   the kolaopt CLI defaults (depth 6, 2 000 states, sample store of 40
   people / 30 vehicles / seed 42), recorded once and checked at 1, 2 and
   4 domains: best plan, derivation, cost, explored and distinct state
   counts, stop reason, and the derivations [reaches] finds.  Any change
   to the engine must reproduce them bit for bit.

   A wider oracle pins 50 generated queries the same way, under BFS and
   under the e-graph: [seeded] below was recorded with costing that ran
   every state to the end, before costing became branch and bound. *)

open Kola
open Util
module Search = Optimizer.Search
module Cost = Optimizer.Cost

(* A fresh cost cache per run, so the miss count is the number of
   distinct states costed, whatever ran before. *)
let cli_config jobs =
  {
    Search.default_config with
    max_depth = 6;
    max_states = 2_000;
    sample_db = cli_db;
    jobs;
    cost_cache = Some (Cost.cache ());
  }

type golden = {
  name : string;
  source : Term.query;
  best : string;  (** pretty-printed best plan *)
  path : string list;
  cost : float;
  explored : int;
  seen : int;
}

let goldens =
  [
    {
      name = "T1K";
      source = Paper.t1k_source;
      best = {|iterate(Kp(T), city ∘ addr) ! P|};
      path = [ "r11"; "r5"; "r6t" ];
      cost = 56.1;
      explored = 5;
      seen = 5;
    };
    {
      name = "T2K";
      source = Paper.t2k_source;
      best = {|iterate((gt ⊕ ⟨age, Kf(25)⟩), age) ! P|};
      path = [ "r11"; "r1"; "r4"; "r5c" ];
      cost = 63.4;
      explored = 20;
      seen = 21;
    };
    {
      name = "K4";
      source = Paper.k4;
      best =
        {|iterate(Kp(T),
        ⟨id,
           con(((Cp(gtᵒ, 25) ⊕ age) ⊕ π1), π2, Kf({})) ∘
           ⟨id, child⟩⟩)
! P|};
      path = [ "r13"; "r14"; "r15" ];
      cost = 104.1;
      explored = 284;
      seen = 892;
    };
    {
      name = "KG1";
      source = Paper.kg1;
      best =
        {|iterate(Kp(T),
        ⟨id,
           flat ∘
           iter(Kp(T), grgs ∘ π2) ∘
           ⟨id, iter((in ⊕ (id × cars)), π2) ∘ ⟨id, Kf(P)⟩⟩⟩)
! V|};
      path = [ "hk-times-l" ];
      cost = 3040.1;
      explored = 664;
      seen = 2865;
    };
  ]

let jobs_grid = [ 1; 2; 4 ]

(* The seeded oracle's setting: depth-2 queries from the generator, the
   default search budgets (BFS depth 6, 400 states), a 2 000 e-node
   saturation budget, and the 12-person / 8-vehicle [seed_db]. *)
let seeded_config engine jobs =
  let b = Search.default_config.Search.egraph_budgets in
  {
    Search.default_config with
    Search.engine;
    sample_db = seed_db;
    jobs;
    cost_cache = Some (Cost.cache ());
    egraph_budgets = { b with Kola_egraph.Saturate.max_enodes = 2_000 };
  }

(* seed, engine, MD5 of the printed best plan, derivation (space
   separated), cost, explored, distinct states, stop reason *)
let seeded =
  [
    (0, Search.Bfs, "4f6df3e9c7373332d95291cead9698f5",
     "r11 r4 r18 r1 r5c",
     18.1, 106, 117, "exhausted");
    (1, Search.Bfs, "c630decbdf2dd7dc6c1865fee87ab051",
     "r12 r4 r18",
     0.1, 13, 13, "exhausted");
    (2, Search.Bfs, "c002ddd5ef13d7393959ce9db36e44f0",
     "r11 r1 r4 r18 r1 r5c",
     19.299999999999997, 106, 117, "exhausted");
    (3, Search.Bfs, "355d02785b0e8d4103b74b4418bab892",
     "r11 r4 r5c",
     185.1, 7, 7, "exhausted");
    (4, Search.Bfs, "8470bbb63f919603577e987ba0135c3e",
     "r11 r1 r4 r18 r1 r5c",
     25.3, 400, 810, "budget");
    (5, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 10, 10, "exhausted");
    (6, Search.Bfs, "33f5ee47e91e21cc7e7ea0a78c93808a",
     "",
     16.9, 1, 1, "exhausted");
    (7, Search.Bfs, "43297038781337253966bd5a336e26bc",
     "r11 r1 r4 r5c",
     22.900000000000002, 7, 7, "exhausted");
    (8, Search.Bfs, "996f7230e1a9e4a0a51e9821ea6625dd",
     "r11 r4 r18 r1 r5c",
     19.3, 229, 350, "exhausted");
    (9, Search.Bfs, "d515986b65ff69f30f26c3d11c8ef99b",
     "r11 r4 r18 r1 r5c",
     164.5, 106, 117, "exhausted");
    (10, Search.Bfs, "036c94988e821f047e12a7e0d452200d",
     "r11 r4 r13 r5c hk-conv-conv",
     18.1, 400, 1794, "budget");
    (11, Search.Bfs, "d636c59449d2460d5ff866db71041eeb",
     "",
     16.9, 400, 1974, "budget");
    (12, Search.Bfs, "6e6690d844e047abb6e1bc0617630c00",
     "r11 r4 r5c",
     19.3, 7, 7, "exhausted");
    (13, Search.Bfs, "8cd85a2704a1c49962ae213b6c481321",
     "r11 r1 r4 r13 r4 r5c",
     163.29999999999998, 30, 34, "exhausted");
    (14, Search.Bfs, "d636c59449d2460d5ff866db71041eeb",
     "r18 r1",
     16.9, 400, 1877, "budget");
    (15, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 10, 10, "exhausted");
    (16, Search.Bfs, "1ec0f2f779d796ab1212c84eb670e1a8",
     "r11 r1 r4 r18 r1 r5c",
     309.7, 262, 374, "exhausted");
    (17, Search.Bfs, "2040eb0f0b2b95dcf9c801a3dac27d46",
     "r12 r4 r13 hk-conv-eq",
     17.1, 284, 422, "exhausted");
    (18, Search.Bfs, "40a26cf4bf80290d84a5d58f711197de",
     "r11 r1 r4 r5c",
     20.5, 16, 16, "exhausted");
    (19, Search.Bfs, "c630decbdf2dd7dc6c1865fee87ab051",
     "r12 r4 r18",
     0.1, 13, 13, "exhausted");
    (20, Search.Bfs, "a75562b81171fa864875ac6cb3241c54",
     "r11 r4 r5c hk-inv-inv hk-inv-inv hk-inv-inv",
     34.3, 400, 934, "budget");
    (21, Search.Bfs, "d2c611f60b6f7e29ea326e8477181b14",
     "r13 r13 r18 hk-conv-conv hk-conv-eq",
     23.3, 400, 959, "budget");
    (22, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 10, 10, "exhausted");
    (23, Search.Bfs, "06c6399d90fd82a775685a5233d09516",
     "r18 r1",
     14.5, 10, 10, "exhausted");
    (24, Search.Bfs, "d636c59449d2460d5ff866db71041eeb",
     "",
     16.9, 400, 1974, "budget");
    (25, Search.Bfs, "d8856c472fb34be8cfe27399e0251fd6",
     "",
     16.9, 1, 1, "exhausted");
    (26, Search.Bfs, "287efafcf0216387804df6c9317a55c5",
     "r11 r1 r4 r5c",
     24.1, 16, 16, "exhausted");
    (27, Search.Bfs, "c002ddd5ef13d7393959ce9db36e44f0",
     "r11 r1 r4 r5c",
     19.299999999999997, 7, 7, "exhausted");
    (28, Search.Bfs, "49c2e0d30e1be19e88fb15b3ce9764a3",
     "r11 r4 r18 r1 r5c",
     25.3, 212, 306, "exhausted");
    (29, Search.Bfs, "11a4aafbffde04bb86dd5e397ef6e88e",
     "r11 r1 r4 r18 r1 r5c",
     163.3, 262, 374, "exhausted");
    (30, Search.Bfs, "777126de40fe5b69f7d5b8f7b505fe30",
     "r11 r1 r4 r5c",
     18.4, 400, 1925, "budget");
    (31, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "",
     14.5, 1, 1, "exhausted");
    (32, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "",
     14.5, 1, 1, "exhausted");
    (33, Search.Bfs, "de2df3a18368bf0cba96ae6e2f5c618e",
     "r11 r18 r1 x-and-assoc",
     27.700000000000003, 400, 1249, "budget");
    (34, Search.Bfs, "e72cf803cf16f179a9bb92d8eaf91d24",
     "r11 r18 r1 x-and-assoc",
     20.5, 400, 752, "budget");
    (35, Search.Bfs, "e0229d0cf950c7ad43c6c7a426a73a33",
     "",
     33.900000000000006, 1, 1, "exhausted");
    (36, Search.Bfs, "11a4aafbffde04bb86dd5e397ef6e88e",
     "r11 r1 r4 r18 r1 r5c",
     163.3, 262, 374, "exhausted");
    (37, Search.Bfs, "a2df9054f76dc1a296f28dd5e7cdb132",
     "r11 r1 r4 r18 r1 r5c",
     18.200000000000003, 226, 302, "exhausted");
    (38, Search.Bfs, "d636c59449d2460d5ff866db71041eeb",
     "",
     16.9, 400, 1974, "budget");
    (39, Search.Bfs, "7066c53ed484d1c4c8d01d501d7285e2",
     "r11 r1 r4 r18 r1 r5c",
     19.299999999999997, 106, 117, "exhausted");
    (40, Search.Bfs, "c7daf2755e62b94a34eb36fec6313e17",
     "r11 r4 r18 r1 r5c",
     35.1, 106, 117, "exhausted");
    (41, Search.Bfs, "74eb08db01f96c5bb32bb8dbb5e17cf4",
     "r18 r1",
     16.9, 22, 22, "exhausted");
    (42, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 10, 10, "exhausted");
    (43, Search.Bfs, "0ed1fff50c046b177c3e2fc4784ae229",
     "r12 r4 r13 hk-inv-inv hk-conv-eq",
     17.1, 400, 945, "budget");
    (44, Search.Bfs, "0f5620751816b996cde9fca140a005d6",
     "r12 r4 hk-inv-inv x-and-assoc",
     20.700000000000003, 400, 1677, "budget");
    (45, Search.Bfs, "86b73de98fce3022a04b9e62fafdb5b9",
     "r11 r1 r4 r18 r1 r5c",
     21.700000000000003, 229, 350, "exhausted");
    (46, Search.Bfs, "f63d39dcd1faeb19e8162849165497df",
     "r11 r4 r18 r1 r5c",
     38.7, 106, 117, "exhausted");
    (47, Search.Bfs, "a4eb55d85a55f68ae91e341d14ccc124",
     "",
     14.5, 1, 1, "exhausted");
    (48, Search.Bfs, "f72f5fe363d4beed379b35a2706f7344",
     "hk-inv-inv hk-inv-inv x-and-assoc x-and-assoc",
     27.9, 400, 1116, "budget");
    (49, Search.Bfs, "d17b0fc40f8931765676a4ba3f23442f",
     "r11 r1 r4 r13 r4 r5c",
     163.29999999999998, 400, 1794, "budget");
    (0, Search.Egraph, "162a57224e807aa0f101b9cf23993c12",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     18.1, 117, 11, "exhausted");
    (1, Search.Egraph, "c630decbdf2dd7dc6c1865fee87ab051",
     "r18 r1 r18",
     0.1, 20, 4, "exhausted");
    (2, Search.Egraph, "c002ddd5ef13d7393959ce9db36e44f0",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     19.299999999999997, 117, 11, "exhausted");
    (3, Search.Egraph, "f9e239f7fbcdc251cc89125e461381f0",
     "r11 r4 r5c r1",
     185.1, 37, 17, "exhausted");
    (4, Search.Egraph, "8c19d695ff79a3dd9134741551d62958",
     "r12 r18-1 r11 r4 r5-1 r5 r4-1 r5-1 r1-1 r18 r5 r4 r18-1 r1 \
       r18 r4 r5c r4-1 hk-demorgan-and r18-1 hk-oplus-or hk-inv-inv \
       r18 r4 r13 r18 r4 r18 r1",
     22.9, 163, 28, "exhausted");
    (5, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 25, 6, "exhausted");
    (6, Search.Egraph, "33f5ee47e91e21cc7e7ea0a78c93808a",
     "",
     16.9, 7, 7, "exhausted");
    (7, Search.Egraph, "43297038781337253966bd5a336e26bc",
     "r11 r4 r5c r1",
     22.900000000000002, 41, 15, "exhausted");
    (8, Search.Egraph, "98b92d6ff2d1bc9a0acb420422c72be0",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     19.3, 124, 14, "exhausted");
    (9, Search.Egraph, "d63bddf6a0498584b40ad30526e54fcf",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     164.5, 120, 14, "exhausted");
    (10, Search.Egraph, "a2f4185d9b364704fc1eb3d912228219",
     "r11 r4 r5c r13 hk-conv-conv r1",
     18.1, 2000, 374, "budget");
    (11, Search.Egraph, "d636c59449d2460d5ff866db71041eeb",
     "",
     16.9, 2000, 363, "budget");
    (12, Search.Egraph, "9a28d34fbe57ee5361fe5792d649106e",
     "r11 r4 r5c r1",
     19.3, 32, 12, "exhausted");
    (13, Search.Egraph, "8cd85a2704a1c49962ae213b6c481321",
     "r11 r4 r5c r13 r4 r1",
     163.29999999999998, 47, 16, "exhausted");
    (14, Search.Egraph, "d636c59449d2460d5ff866db71041eeb",
     "r18 r1",
     16.9, 2000, 322, "budget");
    (15, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 25, 6, "exhausted");
    (16, Search.Egraph, "80aad704beb87e21d9d5d1079c42a1d1",
     "hk-sel-cascade r18-1 r18 hk-sel-cascade-1 r18 r1 r18-1 r13 \
       r4-1 r13-1 r18 r18-1 r11 r13 r4 r18-1 r13-1 r18 r5-1 r5 \
       r18-1 r13 r4-1 r13-1 r18 r5-1 r1-1 r18 r5 r13 r4 r18-1 r13-1 \
       r18 r18-1 r1 r18 r4 r5c r13 r4 r18 r1",
     307.3, 129, 15, "exhausted");
    (17, Search.Egraph, "59fe91f7f21cebdbea439bee19e72ac4",
     "r12 r18-1 r11 r4 r5-1 r5 r4-1 r5-1 r1-1 r18 r5 r4 r18-1 r1 \
       r18 r4 r5c r13 hk-conv-eq r18 r1",
     16.900000000000002, 125, 15, "exhausted");
    (18, Search.Egraph, "40a26cf4bf80290d84a5d58f711197de",
     "r11 r4 r5c r1",
     20.5, 34, 15, "exhausted");
    (19, Search.Egraph, "c630decbdf2dd7dc6c1865fee87ab051",
     "r18 r1 r18",
     0.1, 20, 4, "exhausted");
    (20, Search.Egraph, "dc87f167107a8920eb07b2b177bb0cdf",
     "r11 r4 r5c hk-inv-inv hk-inv-inv x-and-assoc r5c-1 r4-1 \
       x-and-assoc x-and-assoc r13 r4 r5c r13 hk-inv-inv r1",
     32.5, 132, 46, "exhausted");
    (21, Search.Egraph, "fd2305b05e8d3ca04ffcb773bc42dbc7",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18-1 hk-oplus-and r1-1 \
       r18 x-and-assoc r18 r4 r13 hk-conv-conv r18 r4 r18-1 r1 r18 \
       r4 r5c r13 hk-conv-eq r18-1 r1 r18 r1",
     22.9, 158, 30, "exhausted");
    (22, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 25, 6, "exhausted");
    (23, Search.Egraph, "06c6399d90fd82a775685a5233d09516",
     "r18 r1",
     14.5, 26, 7, "exhausted");
    (24, Search.Egraph, "d636c59449d2460d5ff866db71041eeb",
     "",
     16.9, 2000, 363, "budget");
    (25, Search.Egraph, "d8856c472fb34be8cfe27399e0251fd6",
     "",
     16.9, 8, 8, "exhausted");
    (26, Search.Egraph, "287efafcf0216387804df6c9317a55c5",
     "r11 r4 r5c r1",
     24.1, 48, 15, "exhausted");
    (27, Search.Egraph, "c002ddd5ef13d7393959ce9db36e44f0",
     "r11 r4 r5c r1",
     19.299999999999997, 31, 11, "exhausted");
    (28, Search.Egraph, "10b63fbfa8491edf8a29d35775c3fafc",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     25.3, 139, 17, "exhausted");
    (29, Search.Egraph, "a6fa011d03e971254f23403b4b95633b",
     "hk-sel-cascade r18-1 r18 hk-sel-cascade-1 r18 r1 r18-1 r13 \
       r4-1 r13-1 r18 r18-1 r11 r13 r4 r18-1 r13-1 r18 r5-1 r5 \
       r18-1 r13 r4-1 r13-1 r18 r5-1 r1-1 r18 r5 r13 r4 r18-1 r13-1 \
       r18 r18-1 r1 r18 r4 r5c r13 r4 r18 r1",
     160.9, 124, 14, "exhausted");
    (30, Search.Egraph, "777126de40fe5b69f7d5b8f7b505fe30",
     "r11 r4 r5c r1",
     18.4, 2000, 373, "budget");
    (31, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "",
     14.5, 5, 5, "exhausted");
    (32, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "",
     14.5, 5, 5, "exhausted");
    (33, Search.Egraph, "df94a063836ff4bf4cc7f96a53ad9988",
     "r12 r18-1 r11 r4 r5-1 r5 r4-1 r5-1 r1-1 r18 r5 r4 r18-1 r1 \
       r18 r4 r5c r4-1 x-and-assoc hk-inv-inv-1 r18-1 hk-oplus-and \
       r18 r4 hk-inv-inv r5c-1 r4-1 r18-1 r1-1 r18 r18 r4 \
       hk-inv-inv-1 hk-inv-inv-1 r4-1 r18-1 hk-oplus-inv hk-inv-inv \
       x-and-assoc r4-1 r18-1 hk-inv-inv-1 hk-oplus-inv-1 r18 r4 \
       hk-inv-inv hk-inv-inv r18 r4 r4-1 r18-1 hk-oplus-and r18 r4 \
       r4-1 r18-1 hk-oplus-and-1 r18 r4 x-and-assoc x-and-assoc \
       hk-inv-inv r4-1 r18-1 r18-1 r1 r18 r4 r5c r18 r4 r4-1 r18-1 \
       hk-demorgan-and hk-oplus-or r18 r4 hk-inv-inv-1 \
       hk-oplus-inv-1 r18 r4 hk-inv-inv hk-inv-inv hk-inv-inv r18 \
       r1",
     27.700000000000003, 401, 26, "exhausted");
    (34, Search.Egraph, "bd035f8cc9dad9646e46f7f43263e5c8",
     "r18 r2 r18 r1 r2-1 r18-1 r18-1 r1-1 r18-1 hk-sel-cascade \
       r18-1 r18 r18 hk-sel-cascade r5 r4-1 r4 x-and-assoc r4-1 \
       r18-1 r1-1 r18 r4-1 r18-1 r5c-1 r4-1 r18-1 r1-1 r18 r18 r4 \
       r4-1 r18-1 r18-1 r1 r18 r4 r5c hk-oplus-and x-and-assoc r18 \
       r4 r18 r4 r18-1 r1 r18 r4 r5c hk-inv-inv",
     20.5, 247, 20, "exhausted");
    (35, Search.Egraph, "e0229d0cf950c7ad43c6c7a426a73a33",
     "",
     33.900000000000006, 7, 7, "exhausted");
    (36, Search.Egraph, "a6fa011d03e971254f23403b4b95633b",
     "hk-sel-cascade r18-1 r18 hk-sel-cascade-1 r18 r1 r18-1 r13 \
       r4-1 r13-1 r18 r18-1 r11 r13 r4 r18-1 r13-1 r18 r5-1 r5 \
       r18-1 r13 r4-1 r13-1 r18 r5-1 r1-1 r18 r5 r13 r4 r18-1 r13-1 \
       r18 r18-1 r1 r18 r4 r5c r13 r4 r18 r1",
     160.9, 124, 14, "exhausted");
    (37, Search.Egraph, "6a429a53d227d204ac091577641910d8",
     "r12 r18-1 r11 r4 r5-1 r5 r4-1 r5-1 r1-1 r18 r5 r4 r18-1 r1 \
       r18 r4 r5c r13 r18 r1",
     18.200000000000003, 125, 16, "exhausted");
    (38, Search.Egraph, "d636c59449d2460d5ff866db71041eeb",
     "",
     16.9, 2000, 363, "budget");
    (39, Search.Egraph, "7066c53ed484d1c4c8d01d501d7285e2",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     19.299999999999997, 126, 16, "exhausted");
    (40, Search.Egraph, "54e2355464964399c945602a2e883a2f",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     35.1, 118, 12, "exhausted");
    (41, Search.Egraph, "74eb08db01f96c5bb32bb8dbb5e17cf4",
     "r18 r1",
     16.9, 37, 9, "exhausted");
    (42, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "r18 r1",
     14.5, 25, 6, "exhausted");
    (43, Search.Egraph, "a501b1dff633d419f8be8647990af1de",
     "r12 r18-1 r11 hk-inv-inv r4 r5-1 hk-inv-inv-1 hk-inv-inv r5 \
       r4-1 hk-inv-inv-1 r5-1 r1-1 r18 r5 hk-inv-inv r4 r18-1 r1 \
       r18 r4 r5c r13 hk-conv-eq r18 r1",
     16.900000000000002, 161, 21, "exhausted");
    (44, Search.Egraph, "a4fd315d5edbeb26951f99272376a006",
     "r12 r18-1 r11 r4 r5-1 r5 r4-1 r5-1 r1-1 r18 r5 x-and-assoc \
       r18-1 hk-oplus-and x-and-assoc r18 r4 hk-inv-inv r18 r4 \
       r18-1 r1 r18 r4 r5c r4-1 r18-1 r5c-1 r4-1 r18-1 r1-1 r18 \
       r4-1 r18-1 r18 r4 r13 hk-conv-eq r13 hk-conv-eq r18 r4 r18-1 \
       r1 r18 r4 r5c r4-1 r18-1 r4-1 r18-1 x-and-assoc hk-oplus-and \
       hk-oplus-and r14-1 r18 r18 r18-1 r1 r18 r4 r13 r5c-1 r18 r4 \
       hk-inv-inv-1 hk-oplus-and r18 r4 hk-inv-inv r18 r4 r4-1 \
       r18-1 r4-1 r18-1 r1-1 r18 r18 r4 hk-inv-inv-1 x-and-assoc \
       r4-1 r18-1 hk-inv-inv r18 r4 r18-1 r1 r18 r4 r5c hk-inv-inv \
       r18 r1",
     20.5, 283, 48, "exhausted");
    (45, Search.Egraph, "86b73de98fce3022a04b9e62fafdb5b9",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     21.700000000000003, 122, 12, "exhausted");
    (46, Search.Egraph, "1d63b03058b6188c23b751e01649d719",
     "r11 r11 r5 r4 r5-1 r18-1 r1 r5 r4-1 r18 r4 r5c r4 r18-1 r1 \
       r18 r1",
     38.7, 128, 18, "exhausted");
    (47, Search.Egraph, "a4eb55d85a55f68ae91e341d14ccc124",
     "",
     14.5, 5, 5, "exhausted");
    (48, Search.Egraph, "012c3f32b5dbb9efc743422049ccbc92",
     "r11 hk-inv-inv r4 r5c x-and-assoc hk-inv-inv r13 \
       hk-inv-inv-1 hk-demorgan-and hk-demorgan-or hk-inv-inv r5c-1 \
       hk-inv-inv-1 r4-1 hk-inv-inv hk-demorgan-and hk-demorgan-or \
       hk-inv-inv x-and-assoc hk-inv-inv hk-inv-inv-1 hk-inv-inv r4 \
       r5c hk-inv-inv r1",
     27.7, 214, 55, "exhausted");
    (49, Search.Egraph, "d17b0fc40f8931765676a4ba3f23442f",
     "r11 r4 r5c r13 r4 r1",
     163.29999999999998, 2000, 365, "budget")
  ]

let check_seeded jobs
    (seed, engine, plan, path, cost, explored, seen, stop) =
  let q = Translate.Compile.query (Datagen.Queries.query ~seed ~depth:2) in
  let o = Search.explore ~config:(seeded_config engine jobs) q in
  let at what =
    Fmt.str "seed %d, %s @ jobs=%d: %s" seed
      (match engine with Search.Bfs -> "bfs" | Search.Egraph -> "egraph")
      jobs what
  in
  Alcotest.(check string) (at "best plan digest") plan
    (Digest.to_hex
       (Digest.string (Pretty.query_to_string o.Search.best.Search.query)));
  Alcotest.(check string) (at "derivation") path
    (String.concat " " o.Search.best.Search.path);
  Alcotest.(check (float 0.)) (at "cost") cost o.Search.best.Search.cost;
  Alcotest.(check int) (at "explored") explored o.Search.explored;
  Alcotest.(check int) (at "distinct states") seen o.Search.seen_states;
  Alcotest.(check string) (at "stop") stop
    (Search.stop_reason_label o.Search.stop)

let with_flips =
  Rules.Catalog.all
  @ List.map Rewrite.Rule.flip (Rules.Catalog.rules [ "r14"; "r12" ])

let tests =
  List.map
    (fun g ->
      case (Fmt.str "%s explore matches its golden outcome at jobs 1/2/4" g.name)
        (fun () ->
          List.iter
            (fun jobs ->
              let o = Search.explore ~config:(cli_config jobs) g.source in
              let at what = Fmt.str "%s @ jobs=%d: %s" g.name jobs what in
              Alcotest.(check string)
                (at "best plan") g.best
                (Pretty.query_to_string o.Search.best.Search.query);
              Alcotest.(check (list string))
                (at "derivation") g.path o.Search.best.Search.path;
              Alcotest.(check (float 0.)) (at "cost") g.cost
                o.Search.best.Search.cost;
              Alcotest.(check int) (at "explored") g.explored o.Search.explored;
              Alcotest.(check int) (at "distinct states") g.seen
                o.Search.seen_states;
              Alcotest.(check string)
                (at "stop") "exhausted"
                (Search.stop_reason_label o.Search.stop);
              Alcotest.(check int)
                (at "fresh cache costs every state once")
                g.seen o.Search.cache_misses;
              Alcotest.(check bool)
                (at "interning shares nodes") true
                (o.Search.intern_hits > 0))
            jobs_grid))
    goldens
  @ [
      case "50 seeded queries match their golden BFS outcomes at jobs 1/2"
        (fun () ->
          List.iter
            (fun jobs ->
              List.iter
                (fun ((_, engine, _, _, _, _, _, _) as g) ->
                  if engine = Search.Bfs then check_seeded jobs g)
                seeded)
            [ 1; 2 ]);
      case "50 seeded queries match their golden e-graph outcomes at jobs 2"
        (fun () ->
          List.iter
            (fun ((_, engine, _, _, _, _, _, _) as g) ->
              if engine = Search.Egraph then check_seeded 2 g)
            seeded);
      case "reaches finds the golden derivations at jobs 1/2/4" (fun () ->
          List.iter
            (fun jobs ->
              let reach ?(config = cli_config jobs) q target =
                Search.reaches ~config:{ config with jobs } q target
              in
              let at what = Fmt.str "%s @ jobs=%d" what jobs in
              Alcotest.(check (option (list string)))
                (at "T1K -> t1k_target")
                (Some [ "r11"; "r5"; "r6t" ])
                (reach Paper.t1k_source Paper.t1k_target);
              (* T2K needs rule 12 right-to-left: out of reach of the
                 forward catalog, found once the flips are added *)
              Alcotest.(check (option (list string)))
                (at "T2K -> t2k_target, forward catalog")
                None
                (reach Paper.t2k_source Paper.t2k_target);
              Alcotest.(check (option (list string)))
                (at "T2K -> t2k_target, with flips")
                (Some [ "r11"; "r1"; "r4"; "r13"; "r5c"; "r12-1" ])
                (reach
                   ~config:
                     {
                       Search.default_config with
                       rules = with_flips;
                       max_depth = 8;
                       max_states = 4_000;
                     }
                   Paper.t2k_source Paper.t2k_target);
              Alcotest.(check (option (list string)))
                (at "KG1 -> KG2 stays out of reach")
                None
                (reach Paper.kg1 Paper.kg2))
            jobs_grid);
    ]
