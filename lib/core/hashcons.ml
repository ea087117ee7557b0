(* Concurrency audit (serving daemon): the striped table below is the
   one structure the daemon shares across worker domains *without* any
   daemon-side locking, so its guarantees are spelled out here.

   - [intern] is safe under arbitrary concurrency: the hit path probes
     lock-free over immutable chains (soundness argument at the call
     site below) and every mutation — insert, resize, count — happens
     under the owning stripe's mutex.  Ids come from one atomic counter,
     so two domains can never intern distinct nodes with one id.
   - [counters] reads per-stripe fields without locks; sums can be
     momentarily inconsistent and the lock-free [hits] bump can drop
     increments under contention.  Sharing *statistics* are therefore
     approximate under the daemon; the interning itself never is.
   - Interned nodes are immutable after [N.build] and compare by [==],
     so cross-request sharing needs no further synchronization: a term
     interned while answering one request is reused verbatim by every
     later request that spells the same subterm. *)

type stats = {
  entries : int;
  hits : int;
  misses : int;
  buckets : int;
  max_bucket : int;
}

let zero_stats = { entries = 0; hits = 0; misses = 0; buckets = 0; max_bucket = 0 }

let merge_stats a b =
  {
    entries = a.entries + b.entries;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    buckets = a.buckets + b.buckets;
    max_bucket = max a.max_bucket b.max_bucket;
  }

module type NODE = sig
  type shape
  type t

  val hash : shape -> int
  val matches : shape -> t -> bool
  val build : id:int -> shape -> t
end

module Make (N : NODE) = struct
  (* Buckets store [(hash, node)] so resize can redistribute entries
     without recomputing node hashes (shapes are not retained). *)
  type stripe = {
    lock : Mutex.t;
    mutable buckets : (int * N.t) list array;
    mutable count : int;
    mutable hits : int;
    mutable misses : int;
  }

  type t = {
    stripes : stripe array;
    stripe_mask : int;
    stripe_bits : int;
    ids : int Atomic.t;
  }

  let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

  let initial_buckets = 16

  let create ?(stripes = 64) () =
    let n = pow2_at_least (max 1 stripes) 1 in
    {
      stripes =
        Array.init n (fun _ ->
            {
              lock = Mutex.create ();
              buckets = Array.make initial_buckets [];
              count = 0;
              hits = 0;
              misses = 0;
            });
      stripe_mask = n - 1;
      stripe_bits = log2 n;
      ids = Atomic.make 0;
    }

  let positive h = h land max_int

  (* Stripe from the low hash bits; bucket-within-stripe from the next
     bits up, so the two indices stay independent. *)
  let bucket_index t s h =
    (positive h lsr t.stripe_bits) land (Array.length s.buckets - 1)

  (* Redistribute into a fresh array, publishing it only once fully
     populated: a concurrent lock-free prober then sees either the old
     array (complete up to recent inserts) or the new one (complete) —
     never a half-filled table. *)
  let resize t s =
    let old = s.buckets in
    let n' = Array.length old * 2 in
    let fresh = Array.make n' [] in
    let mask = n' - 1 in
    Array.iter
      (fun chain ->
        List.iter
          (fun ((h, _) as entry) ->
            let i = (positive h lsr t.stripe_bits) land mask in
            fresh.(i) <- entry :: fresh.(i))
          chain)
      old;
    s.buckets <- fresh

  (* Interning is hit-dominated (a rewrite engine re-builds the same
     nodes constantly — sharing ratios run well over 90%), and a mutex
     acquisition costs an order of magnitude more than the probe itself,
     so the hit path is lock-free: probe the bucket optimistically and
     take the stripe lock only on a miss.

     Why the unlocked probe is sound under the OCaml 5 memory model:
     bucket chains are immutable lists (inserts cons a new head and
     publish it with a single array store; resize publishes a fully
     populated fresh array), and interned nodes are immutable after
     [N.build], so a racing reader observes either a valid older chain —
     at worst missing the newest entries, in which case it falls through
     to the locked path and re-probes — or the new one.  No value can be
     observed half-initialized.  [hits] is a plain counter bumped without
     the lock: increments lost under contention make the reported
     sharing statistics approximate (never the interning itself); with
     one domain interning they are exact. *)
  let intern t shape =
    let h = N.hash shape in
    let s = t.stripes.(positive h land t.stripe_mask) in
    let rec probe = function
      | [] -> None
      | (h', node) :: rest ->
          if h' = h && N.matches shape node then Some node else probe rest
    in
    let buckets = s.buckets in
    let i = (positive h lsr t.stripe_bits) land (Array.length buckets - 1) in
    match probe buckets.(i) with
    | Some node ->
        s.hits <- s.hits + 1;
        node
    | None ->
        Mutex.lock s.lock;
        let i = bucket_index t s h in
        let node =
          match probe s.buckets.(i) with
          | Some node ->
              s.hits <- s.hits + 1;
              node
          | None ->
              s.misses <- s.misses + 1;
              let id = Atomic.fetch_and_add t.ids 1 in
              let node = N.build ~id shape in
              s.buckets.(i) <- (h, node) :: s.buckets.(i);
              s.count <- s.count + 1;
              if s.count > 2 * Array.length s.buckets then resize t s;
              node
        in
        Mutex.unlock s.lock;
        node

  (* Counter-only read: O(stripes), no bucket walk, no locks.  Racing
     writers can make the sums momentarily inconsistent, which is fine
     for the hit/miss deltas search reports; [stats] below takes the
     locks and additionally measures chain lengths for diagnostics. *)
  let counters t =
    Array.fold_left
      (fun acc s ->
        {
          acc with
          entries = acc.entries + s.count;
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
        })
      zero_stats t.stripes

  let stats t =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let longest =
          Array.fold_left (fun m c -> max m (List.length c)) 0 s.buckets
        in
        let st =
          {
            entries = s.count;
            hits = s.hits;
            misses = s.misses;
            buckets = Array.length s.buckets;
            max_bucket = longest;
          }
        in
        Mutex.unlock s.lock;
        merge_stats acc st)
      zero_stats t.stripes
end
