(* The serving workload: [kolaoptd serve --workers 2] as a child process,
   driven by this single-threaded generator over 2 persistent
   connections.

   The mix, all on the daemon's default store: 50% BFS searches and 15%
   e-graph searches of a T2-shaped or a city-shaped query with a
   never-repeated constant, 25% exact repeats of one of the last 1 000
   fresh requests (outcome-cache hits), 10% explain + compiled columnar
   execution of an A4-shaped or a garage-shaped query.  A constant K
   enters as [age * 1000 > K], so every request is new to the outcome
   cache while selectivity stays that of an age threshold.

   Three phases.  Set-up spawns the daemon and answers a fixed probe
   batch (the warm-up, gated, and the source of the plan costs).  An
   open loop then sends seeded Poisson arrivals at a nominal rate,
   timing each request from its scheduled send time.  Last, closed-loop
   passes each flush the daemon's caches and answer one fixed batch as
   fast as the two connections allow: the inverse of capacity.  K4-
   shaped e-graph searches are left out: one takes tens of seconds in
   the daemon and would dominate any run. *)

module Json = Kola_server.Json

let workers = 2
let nominal_rps = 100.
let batch_blocks = 10
let probe_blocks = 5
let repeat_window = 1_000

(* ------------------------------------------------------------------ *)
(* Requests *)

type req = {
  rid : int;
  cls : string;
  body : string;  (** the JSON fields after the id *)
  origin : int;  (** rid of the request this one repeats; its own if fresh *)
}

let line r = Printf.sprintf "{\"id\": %d, %s}\n" r.rid r.body

let query fmt k = Printf.sprintf ("\"query\": \"" ^^ fmt ^^ "\"") k

let t2 = query "select x.age from x in P where x.age * 1000 > %d"

let city =
  query "select a.city from a in (select p.addr from p in P where p.age * 1000 > %d)"

let a4 =
  query "select [p, (select c from c in p.child where p.age * 1000 > %d)] from p in P"

let garage =
  query
    "select [v, flatten(select p.grgs from p in P where v in p.cars and p.age \
     * 1000 > %d)] from v in V"

let egraph body = body ^ ", \"engine\": \"egraph\""

let explain body =
  body ^ ", \"explain\": true, \"execute\": \"compiled\", \"layout\": \"columnar\""

(* Never-repeated constants: a stride through 40 000 residues, doubled
   with [parity] so the probe batch and the measured phases never share
   one. *)
let constants rng ~parity =
  let off = Datagen.Store.int rng 40_000 and i = ref 0 in
  fun () ->
    let k = (off + (!i * 7_919)) mod 40_000 in
    incr i;
    (2 * k) + parity

(* Request ids are unique over the whole run, so a late answer can never
   be taken for another request's. *)
let next_rid = ref 0

let take_rids n =
  let first = !next_rid in
  next_rid := first + n;
  first

(* [reqs] again under fresh ids, repeats still pointing at their
   originals. *)
let renumber reqs =
  let shift = take_rids (Array.length reqs) - reqs.(0).rid in
  Array.map (fun r -> { r with rid = r.rid + shift; origin = r.origin + shift }) reqs

(* The mix, stratified: every block of [block] requests holds exactly
   these classes, in an order drawn from [rng], so any run of whole blocks
   carries the same work whatever the seed.  E-graph searches alternate
   between 2 T2 + 1 city and 1 T2 + 2 city per block. *)
let block = 20

let block_classes b =
  let n k c = List.init k (fun _ -> c) in
  n 5 "bfs.t2" @ n 5 "bfs.city"
  @ (if b mod 2 = 0 then n 2 "egraph.t2" @ n 1 "egraph.city"
     else n 1 "egraph.t2" @ n 2 "egraph.city")
  @ n 5 "repeat" @ [ "explain.a4"; "explain.garage" ]

(* [blocks] blocks of the mix.  A repeat re-sends one of the last
   [repeat_window] fresh requests; the first block is rotated to open
   with a fresh one. *)
let mix rng ~fresh blocks =
  let rec fresh_first = function
    | "repeat" :: tl -> fresh_first (tl @ [ "repeat" ])
    | l -> l
  in
  let classes =
    Array.of_list
      (List.concat
         (List.init blocks (fun b ->
              let c = Common.shuffle rng (block_classes b) in
              if b = 0 then fresh_first c else c)))
  in
  let first = take_rids (Array.length classes) in
  let recent = ref [] and fresh_count = ref 0 in
  let made = Array.make (Array.length classes) { rid = 0; cls = ""; body = ""; origin = 0 } in
  Array.iteri
    (fun i cls ->
      let rid = first + i in
      let fresh_req body =
        let r = { rid; cls; body; origin = rid } in
        recent := r :: !recent;
        incr fresh_count;
        r
      in
      made.(i) <-
        (match cls with
        | "bfs.t2" -> fresh_req (t2 (fresh ()))
        | "bfs.city" -> fresh_req (city (fresh ()))
        | "egraph.t2" -> fresh_req (egraph (t2 (fresh ())))
        | "egraph.city" -> fresh_req (egraph (city (fresh ())))
        | "explain.a4" -> fresh_req (explain (a4 (fresh ())))
        | "explain.garage" -> fresh_req (explain (garage (fresh ())))
        | _ ->
          let back = Datagen.Store.int rng (min !fresh_count repeat_window) in
          { (List.nth !recent back) with rid; cls }))
    classes;
  made

(* ------------------------------------------------------------------ *)
(* The daemon child process *)

type daemon = { pid : int; out : Unix.file_descr; conns : Unix.file_descr array }

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let readable fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let spawn ~exe ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  live := pid :: !live;
  (* ready once the daemon reports it is listening *)
  let buf = Bytes.create 512 in
  let deadline = Common.now () +. 60. in
  let rec await seen =
    if String.contains seen '\n' then ()
    else if Common.now () > deadline then failwith "kolaoptd did not report ready"
    else
      match readable [ r ] 1. with
      | [] -> await seen
      | _ ->
        let n = Unix.read r buf 0 (Bytes.length buf) in
        if n = 0 then failwith "kolaoptd exited before it was ready";
        await (seen ^ Bytes.sub_string buf 0 n)
  in
  await "";
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  { pid; out = r; conns = Array.init workers (fun _ -> connect ()) }

(* Send one line on connection 0 and wait for its answer. *)
let command d cmd =
  write_all d.conns.(0) (Printf.sprintf "{\"cmd\": %S}\n" cmd) 0;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Common.now () +. 10. in
  let rec go () =
    if Common.now () > deadline then failwith ("no answer to " ^ cmd)
    else if String.contains (Buffer.contents buf) '\n' then ()
    else
      match readable [ d.conns.(0) ] 0.5 with
      | [] -> go ()
      | _ ->
        let n = Unix.read d.conns.(0) chunk 0 4096 in
        if n = 0 then failwith ("connection closed awaiting " ^ cmd);
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let shutdown d =
  (try command d "shutdown" with Failure _ | Unix.Unix_error _ -> ());
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.conns;
  let deadline = Common.now () +. 15. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Common.now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ -> reap d.pid
    | _ -> live := List.filter (( <> ) d.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close d.out

(* ------------------------------------------------------------------ *)
(* The generator *)

type answer = {
  req : req;
  conn : int;
  due : float;  (** scheduled send time (the actual send in a closed loop) *)
  sent : float;
  recv : float;  (** nan when no answer came *)
  json : Json.t option;
}

(* Drive [reqs] over the daemon's connections, each request on the
   connection with the fewest answers outstanding.  [due] gives each
   request's send time in seconds from the start (open loop); without it
   a request goes out whenever a connection is idle (closed loop). *)
let drive ?due d (reqs : req array) =
  let n = Array.length reqs and nc = Array.length d.conns in
  let sent = Array.make n nan and recv = Array.make n nan in
  let json = Array.make n None and conn_of = Array.make n 0 in
  let index = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace index r.rid i) reqs;
  let outstanding = Array.make nc 0 in
  let least_loaded () =
    let best = ref 0 in
    Array.iteri (fun c k -> if k < outstanding.(!best) then best := c) outstanding;
    !best
  in
  let start = Common.now () in
  let next = ref 0 and answered = ref 0 in
  let pending = Array.init nc (fun _ -> Buffer.create 4096) in
  let chunk = Bytes.create 65536 in
  let last_due = match due with Some f when n > 0 -> f (n - 1) | _ -> 0. in
  let deadline = start +. last_due +. 60. in
  let send c =
    let i = !next in
    incr next;
    conn_of.(i) <- c;
    outstanding.(c) <- outstanding.(c) + 1;
    sent.(i) <- Common.now ();
    write_all d.conns.(c) (line reqs.(i)) 0
  in
  let take c t =
    let s = Buffer.contents pending.(c) in
    let rec lines from =
      match String.index_from_opt s from '\n' with
      | None -> from
      | Some j ->
        (match Json.parse_result (String.sub s from (j - from)) with
        | Ok r -> (
          match Option.bind (Json.mem "id" r) Json.int with
          | Some id when Hashtbl.mem index id ->
            let i = Hashtbl.find index id in
            recv.(i) <- t;
            json.(i) <- Some r;
            outstanding.(c) <- outstanding.(c) - 1;
            incr answered
          | _ -> ())
        | Error _ -> ());
        lines (j + 1)
    in
    let rest = lines 0 in
    Buffer.clear pending.(c);
    Buffer.add_substring pending.(c) s rest (String.length s - rest)
  in
  let eof = ref false in
  while !answered < n && (not !eof) && Common.now () < deadline do
    (match due with
    | Some f ->
      while !next < n && start +. f !next <= Common.now () do
        send (least_loaded ())
      done
    | None ->
      Array.iteri (fun c k -> if k = 0 && !next < n then send c) outstanding);
    let timeout =
      match due with
      | Some f when !next < n ->
        Float.min 0.05 (Float.max 0. (start +. f !next -. Common.now ()))
      | _ -> 0.05
    in
    List.iter
      (fun fd ->
        let t = Common.now () in
        let rec conn c = if d.conns.(c) = fd then c else conn (c + 1) in
        let c = conn 0 in
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | k ->
          Buffer.add_subbytes pending.(c) chunk 0 k;
          take c t)
      (readable (Array.to_list d.conns) timeout)
  done;
  Array.mapi
    (fun i r ->
      {
        req = r;
        conn = conn_of.(i);
        due = (match due with Some f -> start +. f i | None -> sent.(i));
        sent = sent.(i);
        recv = recv.(i);
        json = json.(i);
      })
    reqs

let status a = Option.bind a.json (fun j -> Option.bind (Json.mem "status" j) Json.str)
let field name a = Option.bind a.json (Json.mem name)
let latency_ms a = (a.recv -. a.due) *. 1e3
let micros a = Option.value ~default:0. (Option.bind (field "micros" a) Json.num)

(* Correctness gate over one drive: every answer ok, every repeat equal
   to its original's plan and cost, no explain execution fell back. *)
let gate (answers : answer array) =
  let first = Hashtbl.create 256 in
  Array.iter (fun a -> if a.req.origin = a.req.rid then Hashtbl.replace first a.req.rid a) answers;
  let fails = ref [] in
  let fail a what = fails := Printf.sprintf "request %d (%s): %s" a.req.rid a.req.cls what :: !fails in
  Array.iter
    (fun a ->
      match status a with
      | None -> fail a "no answer"
      | Some s when s <> "ok" -> fail a ("status " ^ s)
      | Some _ ->
        (if a.req.origin <> a.req.rid then
           match Hashtbl.find_opt first a.req.origin with
           | Some o when field "plan" o = field "plan" a && field "cost" o = field "cost" a -> ()
           | Some _ -> fail a "repeat answered a different plan or cost"
           | None -> ());
        if field "fell_back" a = Some (Json.Bool true) then fail a "execution fell back")
    answers;
  List.rev !fails

(* Per-layer counts over the answers that did work (outcome-cache hits
   replay a stored answer). *)
let counts (answers : answer array) =
  let all = Array.to_list answers in
  let fresh = List.filter (fun a -> field "outcome_cache" a = Some (Json.Str "miss")) all in
  let num path a =
    Option.value ~default:0.
      (Option.bind (List.fold_left (fun j k -> Option.bind j (Json.mem k)) a.json path) Json.num)
  in
  let sum path = List.fold_left (fun acc a -> acc +. num path a) 0. fresh in
  let count p l = float_of_int (List.length (List.filter p l)) in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let searches = List.filter (fun a -> field "sharing_ratio" a <> None) fresh in
  let hits = float_of_int (List.length all - List.length fresh) in
  [
    ("search.explored", sum [ "explored" ]);
    ("search.seen_states", sum [ "seen_states" ]);
    ("search.cost_evals", sum [ "cache"; "misses" ]);
    ("search.cost_hit_ratio", ratio (sum [ "cache"; "hits" ]) (sum [ "cache"; "misses" ]));
    ( "core.intern_sharing_ratio",
      if searches = [] then 0.
      else Common.median (List.map (num [ "sharing_ratio" ]) searches) );
    ("coko.rules_fired", sum [ "rules_fired" ]);
    ("exec.tuples", sum [ "exec_tuples" ]);
    ("exec.probes", sum [ "exec_probes" ]);
    ("exec.builds", sum [ "exec_builds" ]);
    ("exec.col_kernels", sum [ "col_kernels" ]);
    ( "exec.col_degrades",
      List.fold_left
        (fun acc a ->
          acc
          +. float_of_int
               (List.length
                  (Option.value ~default:[] (Option.bind (field "col_degrades" a) Json.arr))))
        0. fresh );
    ("exec.fallbacks", count (fun a -> field "fell_back" a = Some (Json.Bool true)) fresh);
    ("server.outcome_hits", hits);
    ("server.outcome_hit_ratio", ratio hits (float_of_int (List.length fresh)));
  ]

(* Spans of traced requests: the root runs from the scheduled send to the
   answer; the daemon's own [micros] is its handling time, placed at the
   end; the codec (request decode and response encode, re-run here)
   attributes part of the rest, and the remainder is waiting. *)
let record_spans answers =
  let roots =
    Array.to_list answers
    |> List.filter_map (fun a ->
           if Float.is_nan a.recv then None
           else begin
             let id = Span.record ~req:a.req.rid ~lane:(2 + a.conn) "request" a.due a.recv in
             let h = micros a /. 1e6 in
             ignore
               (Span.record ~parent:id ~req:a.req.rid ~lane:(2 + a.conn) "server.handle"
                  (a.recv -. h) a.recv);
             Some (id, a)
           end)
  in
  List.iter
    (fun (id, a) ->
      Span.attribute ~parent:id ~req:a.req.rid "server.codec" (fun () ->
          ignore (Kola_server.Protocol.of_line (String.trim (line a.req)));
          Option.map Json.to_string a.json))
    roots

let classes = List.sort_uniq compare (block_classes 0 @ block_classes 1)

let run ~exe ~seed ~seconds ~reps ~traced =
  let dir = ".ledger" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Printf.sprintf "%s/kolaoptd-%d.sock" dir (Unix.getpid ()) in
  let probe =
    let rng = Datagen.Store.rng Oql_work.data_seed in
    mix rng ~fresh:(constants rng ~parity:1) probe_blocks
  in
  let rng = Datagen.Store.rng seed in
  let fresh = constants rng ~parity:0 in
  let batch = mix rng ~fresh batch_blocks in
  let attempted = ref 0 and failures = ref [] in
  let rejected = ref 0 and errors = ref 0 in
  let driven ?due d reqs =
    let answers = drive ?due d reqs in
    attempted := !attempted + Array.length answers;
    Array.iter
      (fun a ->
        match status a with
        | Some "ok" -> ()
        | Some "rejected" -> incr rejected
        | _ -> incr errors)
      answers;
    failures := !failures @ gate answers;
    answers
  in
  let setup_s, (d, probe_answers) =
    Common.setup ~reps ~drop:(fun (d, _) -> shutdown d) (fun () ->
        let d = spawn ~exe ~socket in
        (d, driven d probe))
  in
  Fun.protect ~finally:(fun () -> shutdown d) @@ fun () ->
  (* seeded Poisson arrivals at the nominal rate, whole blocks *)
  let open_loop duration =
    let blocks = max 1 (int_of_float (duration *. nominal_rps) / block) in
    let reqs = mix rng ~fresh blocks in
    let t = ref 0. in
    let due =
      Array.map
        (fun _ ->
          let u = float_of_int (1 + Datagen.Store.int rng 1_000_000) /. 1_000_001. in
          t := !t -. (log u /. nominal_rps);
          !t)
        reqs
    in
    driven ~due:(fun i -> due.(i)) d reqs
  in
  let batches seconds =
    let last = ref [||] in
    let times =
      Common.passes
        ~before:(fun () -> command d "flush")
        ~seconds
        (fun () -> last := driven d (renumber batch))
    in
    (times, !last)
  in
  let opened, untraced, layers =
    if not traced then
      let opened = open_loop (seconds /. 2.) in
      let untraced, _ = batches (seconds /. 2.) in
      (opened, untraced, [])
    else begin
      let untraced, _ = batches (seconds /. 4.) in
      Span.start ();
      let traced_times, last = batches (seconds /. 4.) in
      record_spans last;
      let opened = open_loop (seconds /. 2.) in
      record_spans opened;
      Span.stop ();
      ( opened,
        untraced,
        ("bench.trace_overhead_pct", Common.overhead_pct ~traced:traced_times ~untraced)
        :: ("server.rejected", float_of_int !rejected)
        :: ("server.errors", float_of_int !errors)
        :: counts last )
    end
  in
  let opened = Array.to_list opened in
  let answered = List.filter (fun a -> not (Float.is_nan a.recv)) opened in
  let per_class =
    List.filter_map
      (fun cls ->
        match List.filter (fun a -> a.req.cls = cls) answered with
        | [] -> None
        | l -> Some (cls, Common.median (List.map latency_ms l)))
      classes
  in
  let lat = List.map latency_ms answered in
  let handle = List.map micros answered in
  let wait = List.map (fun a -> latency_ms a -. (micros a /. 1e3)) answered in
  let lag = List.map (fun a -> (a.sent -. a.due) *. 1e3) opened in
  let tail l = fst (Common.tail l) in
  let costs =
    List.filter_map (fun a -> Option.bind (field "cost" a) Json.num) (Array.to_list probe_answers)
  in
  {
    Common.e2e =
      [
        ("setup_s", setup_s);
        ("pass_s", Common.median untraced);
        ("query_geomean_ms", Common.geomean (List.map snd per_class));
        ("plan_cost_geomean", Common.geomean costs);
        ("peak_rss_mb", Common.peak_rss_mb d.pid);
      ];
    layers;
    rows =
      List.map (fun (c, ms) -> (Printf.sprintf "class.%s.p50_ms" c, ms, "ms")) per_class
      @ [
          ("open_loop.requests", float_of_int (List.length opened), "count");
          ("open_loop.rate", nominal_rps, "1/s");
          ("latency_p50_ms", Common.median lat, "ms");
          ("latency_tail_ms", tail lat, "ms");
          ("latency_tail_percentile", snd (Common.tail lat), "%");
          ("server.handle_p50_us", Common.median handle, "us");
          ("server.handle_tail_us", tail handle, "us");
          ("server.wait_p50_ms", Common.median wait, "ms");
          ("server.wait_tail_ms", tail wait, "ms");
          ("bench.gen_lag_tail_ms", tail lag, "ms");
          ("capacity_rps", float_of_int (Array.length batch) /. Common.median untraced, "1/s");
          ("passes", float_of_int (List.length untraced), "count");
        ];
    attempted = !attempted;
    failures = !failures;
  }
