(* A simple calibration-based cost model: run the candidate plan on a
   (small) sample database and charge it for the work counters the
   evaluator maintains.  Tuples touched dominate; combinator dispatch is
   cheap.  This is deliberately an *executed* cost model — the paper leaves
   cost-based search to the optimizers that would host KOLA, and counters
   make the benches' cost claims implementation-independent. *)

open Kola

type t = {
  tuples : int;
  func_calls : int;
  pred_calls : int;
  weighted : float;
}

let weighted ~tuples ~func_calls ~pred_calls =
  float_of_int tuples +. (0.1 *. float_of_int func_calls)
  +. (0.1 *. float_of_int pred_calls)

let of_counters (c : Eval.counters) =
  {
    tuples = c.Eval.tuples;
    func_calls = c.Eval.func_calls;
    pred_calls = c.Eval.pred_calls;
    weighted =
      weighted ~tuples:c.Eval.tuples ~func_calls:c.Eval.func_calls
        ~pred_calls:c.Eval.pred_calls;
  }

(* Evaluate [q] against [db] under [backend]; return its result and cost. *)
let measure ?(backend = Eval.Naive) ?(dedup = Eval.Eager) ~db (q : Term.query)
    : Value.t * t =
  let ctx = Eval.ctx ~db ~backend ~dedup () in
  let v = Eval.run ctx q in
  (v, of_counters ctx.Eval.counters)

let pp ppf t =
  Fmt.pf ppf "tuples=%d funcs=%d preds=%d (weighted %.1f)" t.tuples
    t.func_calls t.pred_calls t.weighted

(* Compiled-backend costing.  The fused loops count tuples emitted and
   hash builds/probes; builds and probes stand in for the interpreter's
   dispatch counters in the weighted blend, so compiled and interpreted
   costs stay on one scale. *)
let of_exec_stats (s : Kola_exec.Exec.stats) =
  let tuples = s.Kola_exec.Exec.tuples
  and func_calls = s.Kola_exec.Exec.builds
  and pred_calls = s.Kola_exec.Exec.probes in
  { tuples; func_calls; pred_calls;
    weighted = weighted ~tuples ~func_calls ~pred_calls }

let measure_exec ?(backend = Kola_exec.Exec.Compiled) ?(dedup = Eval.Eager)
    ~db (q : Term.query) : Value.t * t * Kola_exec.Exec.stats =
  let v, s = Kola_exec.Exec.run ~backend ~dedup ~db q in
  (v, of_exec_stats s, s)

(* ------------------------------------------------------------------ *)
(* Memoized costing.

   Executed costing is by far the most expensive part of exploring a
   rewrite space, and search re-encounters the same subplans constantly
   (across [explore] calls, across [explore]/[reaches], across pipeline
   stages).  The cache is keyed by [Term.Hc.query_key] — the id of the
   interned body's memoized canonical form paired with the argument's id
   — so two associativity variants of one plan share an entry and a probe
   costs two field reads and an int-pair hash.  Entries are only
   valid for one database: the cache remembers which [db] it was filled
   against (by physical identity — sample databases are built once and
   reused) and flushes itself when costed against a different one.

   Capacity and eviction: [size] is a real bound on resident entries
   (the historical behaviour — initial Hashtbl size only — let long
   pipeline runs grow the shared cache without limit).  Eviction is
   second-chance: every entry carries a [live] bit, clear on insert and
   set on hit; when an insert finds the table full, one sweep removes
   every entry whose bit is clear and demotes the rest, so an entry
   survives a sweep iff it was hit since insertion or the previous
   sweep; if every entry was live the whole table is dropped (a full
   clear beats thrashing sweep-per-insert).  Sweep cost is O(capacity)
   but amortized O(1) per insert as long as a constant fraction of
   entries is cold between sweeps. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type 'v entry = { w : 'v; mutable live : bool }

(* The memoization machinery — capacity bound, second-chance sweep,
   per-database validity — is independent of how entries are keyed and of
   what they store, so it is written once over any hashtable and
   instantiated twice: over interned query keys storing weighted floats
   (the search cache), and over (plan, backend, dedup) triples storing
   full cost records (the pipeline's plan cache).

   Concurrency: the daemon (lib/server) shares one cache of each kind
   across worker domains, so every table operation — probe, insert,
   sweep, database flush — runs under the memo's mutex, and the
   hit/miss/eviction counters are atomics so a concurrent stats reader
   never observes a torn count.  The critical sections are a hashtable
   probe or insert; the expensive part of a miss (evaluating the plan)
   always happens outside the lock.  Two domains racing on the same
   missing key may both evaluate it and insert twice — the evaluations
   are deterministic, so the second insert is idempotent.  At one domain
   (the CLI) the lock is uncontended and costs a few nanoseconds per
   probe. *)
module Memo (T : Hashtbl.S) = struct
  type 'v memo = {
    table : 'v entry T.t;  (* mutated only under [lock] *)
    capacity : int;
    lock : Mutex.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
    mutable cached_db : (string * Value.t) list option;  (* under [lock] *)
  }

  let create ?(size = 65_536) () =
    let capacity = max 1 size in
    {
      table = T.create (min capacity 1_024);
      capacity;
      lock = Mutex.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      cached_db = None;
    }

  let stats c =
    Mutex.protect c.lock @@ fun () ->
    {
      hits = Atomic.get c.hits;
      misses = Atomic.get c.misses;
      evictions = Atomic.get c.evictions;
      entries = T.length c.table;
      capacity = c.capacity;
    }

  let clear c =
    Mutex.protect c.lock @@ fun () ->
    T.reset c.table;
    c.cached_db <- None

  (* Flush the table when costed against a different database. *)
  let prepare c ~db =
    Mutex.protect c.lock @@ fun () ->
    match c.cached_db with
    | Some d when d == db -> ()
    | Some _ ->
      T.reset c.table;
      c.cached_db <- Some db
    | None -> c.cached_db <- Some db

  (* Hit: refresh the second-chance bit and count. *)
  let find_memo c key =
    let found =
      Mutex.protect c.lock @@ fun () ->
      match T.find_opt c.table key with
      | Some e ->
        e.live <- true;
        Some e.w
      | None -> None
    in
    (match found with
    | Some _ ->
      Atomic.incr c.hits;
      Kola_telemetry.Telemetry.count "cost.cache_hit"
    | None -> ());
    found

  (* Caller holds [c.lock]. *)
  let sweep c =
    let doomed =
      T.fold
        (fun k e acc ->
          if e.live then begin
            e.live <- false;
            acc
          end
          else k :: acc)
        c.table []
    in
    let evicted =
      match doomed with
      | [] ->
        (* every resident entry was hit since the last sweep *)
        let n = T.length c.table in
        T.reset c.table;
        n
      | doomed ->
        List.iter (T.remove c.table) doomed;
        List.length doomed
    in
    Atomic.fetch_and_add c.evictions evicted |> ignore;
    Kola_telemetry.Telemetry.count ~n:evicted "cost.cache_evict"

  (* Miss: count, make room, insert.  New entries start with the reference
     bit clear — only a hit earns the second chance. *)
  let insert_memo c key w =
    Atomic.incr c.misses;
    Kola_telemetry.Telemetry.count "cost.cache_miss";
    Mutex.protect c.lock @@ fun () ->
    if T.length c.table >= c.capacity then sweep c;
    T.replace c.table key { w; live = false }
end

module QueryMemo = Memo (Term.Hc.Qtable)

type cache = float QueryMemo.memo

let cache ?size () = QueryMemo.create ?size ()
let cache_stats = QueryMemo.stats
let cache_clear = QueryMemo.clear

(* Weighted cost of [q] on [db] under the default backend, with plans that
   fail to evaluate (e.g. ill-typed intermediate states) costed at
   infinity — the convention search uses to prune them. *)
let measure_weighted ~db (q : Term.query) : float =
  match measure ~db q with
  | _, t -> t.weighted
  | exception Eval.Error _ -> infinity

let weighted_memo c ~db (hq : Term.Hc.hquery) : float =
  QueryMemo.prepare c ~db;
  let key = Term.Hc.query_key hq in
  match QueryMemo.find_memo c key with
  | Some w -> w
  | None ->
    let w = measure_weighted ~db (Term.Hc.to_query hq) in
    QueryMemo.insert_memo c key w;
    w

(* Batch lookup for the level-synchronous search: probe every key
   sequentially (counting hits), evaluate the misses through [map] — the
   only step a caller parallelizes — then insert the results sequentially
   in item order.  The evaluations themselves never touch the cache, and
   hit, miss, and eviction accounting is the same as feeding the items to
   [weighted_memo] one by one. *)
let weighted_memo_batch c ~db ?(map = Array.map)
    (items : ((int * int) * Term.Hc.hquery) array) : float array =
  QueryMemo.prepare c ~db;
  let out = Array.make (Array.length items) infinity in
  let missing = ref [] in
  Array.iteri
    (fun i (key, hq) ->
      match QueryMemo.find_memo c key with
      | Some w -> out.(i) <- w
      | None -> missing := (i, key, hq) :: !missing)
    items;
  let missing = Array.of_list (List.rev !missing) in
  let ws =
    map
      (fun q -> measure_weighted ~db q)
      (Array.map (fun (_, _, hq) -> Term.Hc.to_query hq) missing)
  in
  Array.iteri
    (fun j (i, key, _) ->
      QueryMemo.insert_memo c key ws.(j);
      out.(i) <- ws.(j))
    missing;
  out

(* ------------------------------------------------------------------ *)
(* The plan cache: full cost records per evaluation setting.

   The pipeline compares candidate plans across execution dimensions —
   the same query costed under naive vs hashed backends and eager vs
   deferred dedup has genuinely different counters — so entries are
   keyed by (interned query, backend, dedup) and store the whole
   {!t}, not just the weighted scalar.  The memoization machinery
   (capacity, second-chance sweep, per-database validity) is the same
   [Memo] instantiation as the search cache. *)

module PlanTbl = Hashtbl.Make (struct
  type t = (int * int) * Eval.backend * Eval.dedup

  let equal (k1 : t) k2 = k1 = k2
  let hash = Hashtbl.hash
end)

module PlanMemo = Memo (PlanTbl)

type plan_cache = t PlanMemo.memo

let plan_cache ?size () = PlanMemo.create ?size ()
let plan_cache_stats = PlanMemo.stats
let plan_cache_clear = PlanMemo.clear

let measure_memo c ?(backend = Eval.Naive) ?(dedup = Eval.Eager) ~db
    (q : Term.query) : t =
  PlanMemo.prepare c ~db;
  let key = (Term.Hc.query_key (Term.Hc.of_query q), backend, dedup) in
  match PlanMemo.find_memo c key with
  | Some cost -> cost
  | None ->
    let _, cost = measure ~backend ~dedup ~db q in
    PlanMemo.insert_memo c key cost;
    cost
