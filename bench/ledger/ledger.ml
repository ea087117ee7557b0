(* ledger: one OQL → result performance ledger.

     ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]
     ledger.exe --all [--seed N] [--seconds S] [--trace 0|1]
     ledger.exe --smoke

   Each workload measures the optimizer from outside, timing calls into
   the public functions of each layer, and checks every answer.  The
   last line of standard output is one JSON object: with tracing off the
   end-to-end metrics, with tracing on the per-layer ones (BENCHMARK.json
   at the repository root lists both).  [--all] and [--smoke] run every
   workload in its own process and end with a combined object; the exit
   code is non-zero when any correctness gate failed. *)

let workloads = [ "oql_small"; "oql_large"; "paper_search"; "serve_open" ]

let e2e_metrics =
  [
    ("setup_s", "s");
    ("pass_s", "s");
    ("query_geomean_ms", "ms");
    ("plan_cost_geomean", "cost");
    ("peak_rss_mb", "MB");
  ]

(* Share of the traced roots' time spent in each layer's own code: the
   self time of the spans named on the right. *)
let shares =
  [
    ("oql.parse_share", [ "oql.parse" ]);
    ("translate.compile_share", [ "translate.compile" ]);
    ("coko.simplify_share", [ "coko.simplify" ]);
    ("coko.hidden_join_share", [ "coko.hidden_join" ]);
    ("optimizer.cost_share", [ "optimizer.cost" ]);
    ("optimizer.other_share", [ "optimizer.optimize" ]);
    ("exec.compile_share", [ "exec.compile" ]);
    ("exec.execute_share", [ "exec.execute" ]);
    ("datagen.store_share", [ "datagen.store" ]);
    ("search.bfs_share", [ "search.bfs" ]);
    ("search.egraph_share", [ "search.egraph" ]);
    ("egraph.saturate_share", [ "egraph.saturate" ]);
    ("server.wait_share", [ "request" ]);
    ("server.codec_share", [ "server.codec" ]);
    ("server.handle_share", [ "server.handle" ]);
    ("bench.glue_share", [ "query"; "cell"; "exec" ]);
  ]

let layer_metrics =
  List.map (fun (n, _) -> (n, "%")) shares
  @ List.map
      (fun n -> (n, "count"))
      [
        "optimizer.candidates";
        "coko.rules_fired";
        "exec.tuples";
        "exec.probes";
        "exec.builds";
        "exec.col_kernels";
        "exec.col_degrades";
        "exec.fallbacks";
        "search.explored";
        "search.seen_states";
        "search.cost_evals";
        "egraph.e_nodes";
        "egraph.iterations";
        "egraph.matches_skipped";
        "egraph.rules_deferred";
        "server.outcome_hits";
        "server.rejected";
        "server.errors";
      ]
  @ [
      ("search.cost_hit_ratio", "ratio");
      ("core.intern_sharing_ratio", "ratio");
      ("server.outcome_hit_ratio", "ratio");
      ("translate.size_ratio_max", "x");
      ("bench.trace_overhead_pct", "%");
    ]

(* The commit the checkout was made from, read from .git when there is
   one (a packed ref reads "unknown"). *)
let commit () =
  let read path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          try Some (String.trim (input_line ic)) with End_of_file -> None)
  in
  let short h = String.sub h 0 (min 12 (String.length h)) in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    match read (".git/" ^ String.sub head 5 (String.length head - 5)) with
    | Some h -> short h
    | None -> "unknown")
  | Some h -> short h
  | None -> "unknown"

let host_cores = Domain.recommended_domain_count ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~failed ~attempted metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : string;  (** "0" off, "1" on with the default file, else a file *)
  daemon : string;
  reps : int;
  all : bool;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]\n\
    \       ledger.exe --all [--seed N] [--seconds S] [--trace 0|1]\n\
    \       ledger.exe --smoke\n\
     workloads: oql_small oql_large paper_search serve_open";
  exit 2

let parse_args argv =
  let o =
    ref
      {
        workload = None;
        seed = 77;
        seconds = 20.;
        trace = "0";
        daemon = "_build/default/bin/kolaoptd.exe";
        reps = 3;
        all = false;
        smoke = false;
      }
  in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      o := { !o with workload = Some w };
      go rest
    | "--seed" :: n :: rest ->
      o := { !o with seed = num int_of_string_opt n };
      go rest
    | "--seconds" :: s :: rest ->
      let s = num float_of_string_opt s in
      if s <= 0. then usage ();
      o := { !o with seconds = s };
      go rest
    | "--trace" :: t :: rest ->
      o := { !o with trace = t };
      go rest
    | "--daemon" :: d :: rest ->
      o := { !o with daemon = d };
      go rest
    | "--reps" :: n :: rest ->
      let n = num int_of_string_opt n in
      if n < 1 then usage ();
      o := { !o with reps = n };
      go rest
    | "--all" :: rest ->
      o := { !o with all = true };
      go rest
    | "--smoke" :: rest ->
      o := { !o with smoke = true };
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let o = !o in
  if (o.workload <> None) = (o.all || o.smoke) then usage ();
  o

let print_rows rows =
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %14.4f %s\n" n v u) rows

(* Self time per span, its share of the traced roots, and the check that
   the self times account for the roots' time. *)
let layer_table () =
  let root = Span.root_seconds () in
  let selfs = Span.self_seconds () in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. selfs in
  Printf.printf "  self time per span (traced roots %.1f ms):\n" (root *. 1e3);
  List.iter
    (fun (n, s) ->
      Printf.printf "    %-22s %12.3f ms %7.2f%%\n" n (s *. 1e3) (100. *. s /. root))
    selfs;
  Printf.printf "    self times sum to %.2f%% of the roots\n" (100. *. total /. root);
  List.map
    (fun (metric, names) ->
      let s =
        List.fold_left
          (fun acc n -> acc +. Option.value ~default:0. (List.assoc_opt n selfs))
          0. names
      in
      (metric, if root > 0. then 100. *. s /. root else 0.))
    shares

let run_one o w =
  let traced = o.trace <> "0" in
  Printf.printf
    "ledger: workload %s, seed %d, %g s, trace %s, commit %s, host_cores %d, jobs 1\n%!"
    w o.seed o.seconds (if traced then "on" else "off") (commit ()) host_cores;
  let seconds = o.seconds and seed = o.seed and reps = o.reps in
  let report =
    match w with
    | "oql_small" -> Oql_work.run Oql_work.small ~seed ~seconds ~reps ~traced
    | "oql_large" -> Oql_work.run Oql_work.large ~seed ~seconds ~reps ~traced
    | "paper_search" -> Search_work.run ~seed ~seconds ~reps ~traced
    | _ -> Serve_work.run ~exe:o.daemon ~seed ~seconds ~reps ~traced
  in
  let value table name =
    match List.assoc_opt name table with Some v -> v | None -> 0.
  in
  let e2e = List.map (fun (n, u) -> (n, value report.Common.e2e n, u)) e2e_metrics in
  print_rows e2e;
  print_rows report.Common.rows;
  let unmeasured ~positive rows =
    List.filter_map
      (fun (n, v, _) ->
        if Float.is_finite v && ((not positive) || v > 0.) then None
        else Some (Printf.sprintf "%s was not measured" n))
      rows
  in
  let metrics =
    if not traced then e2e
    else begin
      let file =
        if o.trace = "1" then Printf.sprintf ".ledger/trace-%s.json" w else o.trace
      in
      (try Unix.mkdir (Filename.dirname file) 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Span.write_chrome file;
      Printf.printf "  trace written to %s\n" file;
      let layers = layer_table () @ report.Common.layers in
      let rows = List.map (fun (n, u) -> (n, value layers n, u)) layer_metrics in
      print_rows rows;
      rows
    end
  in
  let failures =
    report.Common.failures @ unmeasured ~positive:true e2e
    @ if traced then unmeasured ~positive:false metrics else []
  in
  Printf.printf "  gates: %d failed of %d operations\n" (List.length failures)
    report.Common.attempted;
  List.iteri (fun i f -> if i < 20 then Printf.printf "  FAILED %s\n" f) failures;
  print_endline
    (result_line ~failed:(List.length failures) ~attempted:report.Common.attempted metrics);
  if failures <> [] then exit 1

(* Run [w] as a child process of this executable; its output is echoed
   and its last line parsed. *)
let run_child o w =
  let args =
    [
      Sys.executable_name; "--workload"; w; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds;
      "--trace"; (if o.trace = "0" then "0" else "1");
      "--daemon"; o.daemon; "--reps"; string_of_int o.reps;
    ]
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let rec lines last =
    match input_line ic with
    | l ->
      print_endline l;
      lines (Some l)
    | exception End_of_file -> last
  in
  let last = lines None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let parsed =
    Option.bind last (fun l -> Result.to_option (Kola_server.Json.parse_result l))
  in
  (status = Unix.WEXITED 0, parsed)

let run_all o =
  let results = List.map (fun w -> (w, run_child o w)) workloads in
  let module J = Kola_server.Json in
  Printf.printf "\nledger: seed %d, %g s per workload, commit %s, host_cores %d\n"
    o.seed o.seconds (commit ()) host_cores;
  Printf.printf "  %-14s" "workload";
  List.iter (fun (n, u) -> Printf.printf " %18s" (Printf.sprintf "%s(%s)" n u)) e2e_metrics;
  Printf.printf " %8s\n" "failed";
  List.iter
    (fun (w, (_, parsed)) ->
      Printf.printf "  %-14s" w;
      let metric n =
        Option.bind parsed (fun j ->
            Option.bind (J.mem "metrics" j) (fun m ->
                Option.bind (J.mem n m) (fun v -> Option.bind (J.mem "value" v) J.num)))
      in
      List.iter
        (fun (n, _) ->
          match metric n with
          | Some v -> Printf.printf " %18.4f" v
          | None -> Printf.printf " %18s" "-")
        e2e_metrics;
      let failed = Option.bind parsed (fun j -> Option.bind (J.mem "failed" j) J.int) in
      Printf.printf " %8s\n"
        (match failed with Some n -> string_of_int n | None -> "error"))
    results;
  let ok = List.for_all (fun (_, (ok, p)) -> ok && p <> None) results in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool ok);
            ("commit", J.Str (commit ()));
            ("host_cores", J.Num (float_of_int host_cores));
            ("seed", J.Num (float_of_int o.seed));
            ("seconds", J.Num o.seconds);
            ( "workloads",
              J.Obj
                (List.map
                   (fun (w, (_, p)) -> (w, Option.value ~default:J.Null p))
                   results) );
          ]));
  if not ok then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o = parse_args Sys.argv in
  match o.workload with
  | Some w -> run_one o w
  | None ->
    if o.smoke then run_all { o with seconds = 1.; reps = 1; trace = "0" }
    else run_all o
