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
  cut : bool;
}

let weighted = Eval.weighted

let of_counters (c : Eval.counters) =
  {
    tuples = c.Eval.tuples;
    func_calls = c.Eval.func_calls;
    pred_calls = c.Eval.pred_calls;
    weighted = Eval.weighted_of c;
    cut = false;
  }

(* Evaluate [q] against [db] under [backend]; return its result and cost. *)
let measure ?(backend = Eval.Naive) ?(dedup = Eval.Eager) ~db (q : Term.query)
    : Value.t * t =
  let ctx = Eval.ctx ~db ~backend ~dedup () in
  let v = Eval.run ctx q in
  (v, of_counters ctx.Eval.counters)

(* Branch and bound: evaluate [q] only as far as [budget].  A plan whose
   cost is within the budget gets its exact cost; any other is cut, and
   its partial counters blend to a lower bound above the budget. *)
let measure_within ?(backend = Eval.Naive) ?(dedup = Eval.Eager) ~budget ~db
    (q : Term.query) : t =
  let ctx = Eval.ctx ~db ~backend ~dedup ~budget () in
  match Eval.run ctx q with
  | _ -> of_counters ctx.Eval.counters
  | exception Eval.Over_budget ->
    { (of_counters ctx.Eval.counters) with cut = true }

let pp ppf t =
  if t.cut then
    Fmt.pf ppf "tuples>=%d funcs>=%d preds>=%d (weighted > %.1f, cut)"
      t.tuples t.func_calls t.pred_calls t.weighted
  else
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
    weighted = weighted ~tuples ~func_calls ~pred_calls; cut = false }

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
   entries is cold between sweeps.

   Exact costs and lower bounds: a lookup carries the caller's budget B
   (the best cost it knows; [infinity] for none), and an evaluation under
   B that is cut stores its bound P > B instead of an exact cost.  A later
   lookup under budget B' is answered by an exact entry, or by a bound
   with P > B' (the plan costs more than B' whatever its exact cost);
   otherwise the plan is evaluated again, counted as one miss. *)

(* One costing run on the interned evaluator: its weighted cost, whether
   that is exact (false: cut at the budget, a lower bound), and what it
   took from and gave to the session memo. *)
type measured = {
  weight : float;
  exact : bool;
  memo_hits : int;
  memo_stored : int;
}

(* Per-call accounting: what one search or one optimize did to a cache
   that other callers may share.  Defined before [stats] so that the
   shared label names resolve to [stats] by default. *)
type tally = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable cuts : int;
  mutable memo_hits : int;
  mutable memo_stored : int;
}

let tally () =
  { hits = 0; misses = 0; evictions = 0; cuts = 0; memo_hits = 0; memo_stored = 0 }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  cuts : int;
  entries : int;
  capacity : int;
}

(* The memoization machinery — capacity bound, second-chance sweep,
   per-database validity — is independent of how entries are keyed and of
   what they store, so it is written once over any hashtable and
   instantiated twice: over interned query keys storing weighted floats
   (the search cache), and over (plan, backend, dedup) triples storing
   full cost records (the pipeline's plan cache).  [V.weight] reads the
   weighted cost a stored value stands for.

   Concurrency: the daemon (lib/server) shares one cache of each kind
   across worker domains, so every table operation — probe, insert,
   sweep, database flush — runs under the memo's mutex, and the
   hit/miss/eviction counters are atomics so a concurrent stats reader
   never observes a torn count.  The critical sections are a hashtable
   probe or insert; the expensive part of a miss (evaluating the plan)
   always happens outside the lock.  Two domains racing on the same
   missing key may both evaluate it, possibly under different budgets,
   and insert twice.  So an insert never replaces an exact entry with a
   bound, nor a bound with a lower one: whatever order racing inserts
   land in, an entry only ever gets more precise.  At one domain (the
   CLI) the lock is uncontended and costs a few nanoseconds per probe. *)
module Memo
    (T : Hashtbl.S)
    (V : sig
      type t

      val weight : t -> float
    end) =
struct
  (* [exact] is false when [w] records an evaluation cut at a budget. *)
  type entry = { w : V.t; exact : bool; mutable live : bool }

  type memo = {
    table : entry T.t;  (* mutated only under [lock] *)
    capacity : int;
    lock : Mutex.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
    cuts : int Atomic.t;
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
      cuts = Atomic.make 0;
      cached_db = None;
    }

  let stats c : stats =
    Mutex.protect c.lock @@ fun () ->
    {
      hits = Atomic.get c.hits;
      misses = Atomic.get c.misses;
      evictions = Atomic.get c.evictions;
      cuts = Atomic.get c.cuts;
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

  (* Hit: an exact entry, or a bound above [budget].  Refresh the
     second-chance bit and count. *)
  let find_memo c ~(tally : tally) ~budget key =
    let found =
      Mutex.protect c.lock @@ fun () ->
      match T.find_opt c.table key with
      | Some e when e.exact || V.weight e.w > budget ->
        e.live <- true;
        Some e.w
      | Some _ | None -> None
    in
    (match found with
    | Some _ ->
      Atomic.incr c.hits;
      tally.hits <- tally.hits + 1;
      Kola_telemetry.Telemetry.count "cost.cache_hit"
    | None -> ());
    found

  (* Caller holds [c.lock]; returns the number of entries evicted. *)
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
    Kola_telemetry.Telemetry.count ~n:evicted "cost.cache_evict";
    evicted

  (* Miss: count, make room, insert.  New entries start with the reference
     bit clear — only a hit earns the second chance.  A key already
     present (another worker's insert, or a bound the lookup could not
     use) is upgraded in place when [w] is more precise. *)
  let insert_memo c ~(tally : tally) ~exact key w =
    Atomic.incr c.misses;
    tally.misses <- tally.misses + 1;
    Kola_telemetry.Telemetry.count "cost.cache_miss";
    if not exact then begin
      Atomic.incr c.cuts;
      tally.cuts <- tally.cuts + 1;
      Kola_telemetry.Telemetry.count "cost.cut"
    end;
    let evicted =
      Mutex.protect c.lock @@ fun () ->
      match T.find_opt c.table key with
      | Some e ->
        if (not e.exact) && (exact || V.weight w > V.weight e.w) then
          T.replace c.table key { w; exact; live = e.live };
        0
      | None ->
        let evicted = if T.length c.table >= c.capacity then sweep c else 0 in
        T.replace c.table key { w; exact; live = false };
        evicted
    in
    tally.evictions <- tally.evictions + evicted
end

module QueryMemo =
  Memo
    (Term.Hc.Qtable)
    (struct
      type t = float

      let weight w = w
    end)

type cache = QueryMemo.memo

let cache ?size () = QueryMemo.create ?size ()
let cache_stats = QueryMemo.stats
let cache_clear = QueryMemo.clear

(* Telemetry counter names, built once. *)
let memo_hit_counter = "cost.memo_hit"
let memo_stored_counter = "cost.memo_stored"

(* Weighted cost of [hq] on [db] under the default backend and [budget],
   paired with whether it is exact (false: cut, a lower bound).  Plans
   that fail to evaluate (e.g. ill-typed intermediate states) cost an
   exact infinity — the convention search uses to prune them.
   Sub-evaluations are shared through [session] when one is given. *)
let measure_weighted ?session ~budget ~db (hq : Term.Hc.hquery) : measured =
  let ctx = Eval.ctx ~db ~budget ?session () in
  let weight, exact =
    match Eval.hrun ctx hq with
    | _ -> (Eval.weighted_of ctx.Eval.counters, true)
    | exception Eval.Over_budget -> (Eval.weighted_of ctx.Eval.counters, false)
    | exception Eval.Error _ -> (infinity, true)
  in
  { weight; exact; memo_hits = Eval.memo_hits ctx; memo_stored = Eval.memo_stored ctx }

(* Batch lookup for the search: probe every key (counting hits),
   evaluate the misses, then insert the results in item order.  With
   distinct keys the accounting is that of costing the items one by one
   under the same budget. *)
let weighted_memo_batch c ~db ?(budget = infinity) ?(tally = tally ())
    ?session
    (items : ((int * int) * Term.Hc.hquery) array) : float array =
  QueryMemo.prepare c ~db;
  let out = Array.make (Array.length items) infinity in
  let missing = ref [] in
  Array.iteri
    (fun i (key, hq) ->
      match QueryMemo.find_memo c ~tally ~budget key with
      | Some w -> out.(i) <- w
      | None -> missing := (i, key, hq) :: !missing)
    items;
  let missing = Array.of_list (List.rev !missing) in
  let ms =
    Array.map (fun (_, _, hq) -> measure_weighted ?session ~budget ~db hq) missing
  in
  let hits = ref 0 and stored = ref 0 in
  Array.iteri
    (fun j (i, key, _) ->
      let m = ms.(j) in
      hits := !hits + m.memo_hits;
      stored := !stored + m.memo_stored;
      QueryMemo.insert_memo c ~tally ~exact:m.exact key m.weight;
      out.(i) <- m.weight)
    missing;
  tally.memo_hits <- tally.memo_hits + !hits;
  tally.memo_stored <- tally.memo_stored + !stored;
  (* one event per batch, not per evaluation *)
  if !hits > 0 then Kola_telemetry.Telemetry.count ~n:!hits memo_hit_counter;
  if !stored > 0 then Kola_telemetry.Telemetry.count ~n:!stored memo_stored_counter;
  out

let weighted_memo c ?budget ?tally ?session ~db (hq : Term.Hc.hquery) : float =
  (weighted_memo_batch c ~db ?budget ?tally ?session
     [| (Term.Hc.query_key hq, hq) |]).(0)

(* ------------------------------------------------------------------ *)
(* The plan cache: full cost records per evaluation setting.

   The same query costed under naive vs hashed backends and eager vs
   deferred dedup has genuinely different counters, so entries are
   keyed by (interned query, backend, dedup) and store the whole
   {!t}, not just the weighted scalar.  The memoization machinery
   (capacity, second-chance sweep, per-database validity) is the same
   [Memo] instantiation as the search cache. *)

module PlanTbl = Hashtbl.Make (struct
  type t = (int * int) * Eval.backend * Eval.dedup

  let equal (k1 : t) k2 = k1 = k2
  let hash = Hashtbl.hash
end)

module PlanMemo =
  Memo
    (PlanTbl)
    (struct
      type nonrec t = t

      let weight t = t.weighted
    end)

type plan_cache = PlanMemo.memo

let plan_cache ?size () = PlanMemo.create ?size ()
let plan_cache_stats = PlanMemo.stats
let plan_cache_clear = PlanMemo.clear

let measure_memo c ?(backend = Eval.Naive) ?(dedup = Eval.Eager)
    ?(budget = infinity) ?(tally = tally ()) ~db (q : Term.query) : t =
  PlanMemo.prepare c ~db;
  let key = (Term.Hc.query_key (Term.Hc.of_query q), backend, dedup) in
  match PlanMemo.find_memo c ~tally ~budget key with
  | Some cost -> cost
  | None ->
    let cost = measure_within ~backend ~dedup ~budget ~db q in
    PlanMemo.insert_memo c ~tally ~exact:(not cost.cut) key cost;
    cost
