(* Compiled plan execution vs the interpreter on the company workload —
   `make bench-exec`, which writes BENCH_exec.json.

   Plans are chosen once against a small sample store (the optimizer's
   normal costing path); each chosen plan then executes on scaled stores
   through the hashed interpreter and the compiled backend under a
   layout × jobs grid.  Timings are best-of-N wall clock, and every cell
   checks compiled ≡ interpreted (modulo set ordering) before it is
   reported.  The one timing gate compares medians of interleaved runs
   instead.  [--fast] stops at 10^5 employees.

   Every other number the documentation quotes comes from the ledger
   (bench/ledger, BENCHMARK.json) or is pinned by a test. *)

open Kola
module Exec = Kola_exec.Exec

let now () = Kola_telemetry.Telemetry.now ()

(* The third component marks queries whose interpreted run is
   structurally super-linear (a closed membership subquery re-evaluated
   per element, a nested-loop intersection): their interpreted
   measurement is skipped at 10^6 objects, where it would take minutes,
   and the row records the compiled time alone. *)
let queries =
  [
    ("dept_roster", Datagen.Company.dept_roster_oql, false);
    ("mentor_pool", Datagen.Company.mentor_pool_oql, false);
    ("city_salaries", Datagen.Company.city_salaries_oql, false);
    ("payroll", Datagen.Company.payroll_oql, false);
    ("rich_mentors", Datagen.Company.rich_mentors_oql, false);
    ("local_staff", Datagen.Company.local_staff_oql, true);
    ("mentor_elite", Datagen.Company.mentor_elite_oql, true);
  ]

type row = {
  query : string;
  size : int;  (* employees in the scaled store *)
  layout : string;  (* store layout the compiled cell ran under *)
  jobs : int;  (* domains columnar kernels could fan out to *)
  interp_ms : float option;
      (* interp-hashed, the chosen plan's dedup; None when the
         interpreted run was skipped as intractable at this size *)
  compiled_ms : float;  (* compile + run wall clock *)
  compile_us : float;
  speedup : float option;
  stages : int;
  col_kernels : int;  (* operators lowered to column kernels *)
  morsels : int;  (* chunks dispatched by columnar kernels *)
  degrades : int;  (* columnar inputs kept on row closures *)
  fell_back : bool;
  agrees : bool option;  (* None when there was no interpreted run *)
  agrees_sampled : bool option;
      (* when the full-size interpreted run was skipped, the same plan
         and backend checked against the interpreter on a deterministic
         10^4-employee sample — every reported cell is agree-checked *)
  gate_ms : (float * float) option;
      (* the gated cells only: median interpreted and compiled times of
         [gate_runs] interleaved pairs *)
}

(* Each timed run starts on a collected heap, so no cell pays for the
   garbage an earlier cell left behind. *)
let time_best ~trials f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to trials do
    Gc.full_major ();
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* The rich_mentors gate compares the medians of this many interleaved
   interpreted/compiled pairs: two best-of-N times measured one after
   the other drift apart on a shared host, and the gate sits near 1.0x. *)
let gate_runs = 5

let gated ~query ~layout ~size =
  query = "rich_mentors" && layout = Exec.Row && size >= 100_000

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let interleaved_medians f g =
  let time h =
    Gc.full_major ();
    let t0 = now () in
    ignore (h ());
    now () -. t0
  in
  let pairs = List.init gate_runs (fun _ -> let a = time f in (a, time g)) in
  (median (List.map fst pairs), median (List.map snd pairs))

(* The deterministic sample store backing [agrees_sampled]: small
   enough that even the structurally quadratic interpreted runs finish
   in milliseconds, large enough to exercise multi-element groups. *)
let sample_size = 10_000

(* [configs] is the (layout × jobs) grid each compiled cell runs
   under; the interpreted baseline is measured once per (query, size)
   and shared across the grid. *)
let rows ~sizes ~configs =
  let extents = [ "E"; "D" ] in
  let sample = Datagen.Company.db (Datagen.Company.scaled ~seed:77 1_000) in
  let reports =
    List.map
      (fun (name, src, quadratic) ->
        (name, Optimizer.Pipeline.optimize_oql ~extents ~db:sample src, quadratic))
      queries
  in
  let check_store = Datagen.Company.scaled ~seed:77 sample_size in
  let check_db = Datagen.Company.db check_store in
  let check_coldb = lazy (Datagen.Company.columnar check_store) in
  List.concat_map
    (fun size ->
      let store = Datagen.Company.scaled ~seed:77 size in
      let db = Datagen.Company.db store in
      let coldb = lazy (Datagen.Company.columnar store) in
      let trials =
        if size <= 10_000 then 5 else if size <= 100_000 then 3 else 1
      in
      List.concat_map
        (fun (name, report, quadratic) ->
          let interp =
            if quadratic && size >= 1_000_000 then None
            else
              Some
                (time_best ~trials (fun () ->
                     Optimizer.Pipeline.execute
                       ~backend:(Exec.Interp Eval.Hashed) ~db report))
          in
          List.map
            (fun (layout, jobs) ->
              let pick_coldb c =
                match layout with
                | Exec.Columnar -> Some (Lazy.force c)
                | Exec.Row -> None
              in
              let compiled () =
                Optimizer.Pipeline.execute ~backend:Exec.Compiled ~layout ~jobs
                  ?coldb:(pick_coldb coldb) ~db report
              in
              (* The size's column store is built lazily and shared by
                 the grid, so a columnar cell's first run pays every
                 first-use build (the store, element relations and
                 columns) — at 10^6, with one trial, inside the cell's
                 time.  An untimed run first leaves the trials warm. *)
              if layout = Exec.Columnar then ignore (compiled ());
              let (cv, st), compiled_s = time_best ~trials compiled in
              let gate_ms =
                if gated ~query:name ~layout ~size then
                  let i, c =
                    interleaved_medians
                      (fun () ->
                        Optimizer.Pipeline.execute
                          ~backend:(Exec.Interp Eval.Hashed) ~db report)
                      compiled
                  in
                  Some (i *. 1e3, c *. 1e3)
                else None
              in
              let agrees =
                Option.map (fun ((iv, _), _) -> Exec.agree ~db cv iv) interp
              in
              let agrees_sampled =
                match agrees with
                | Some _ -> None
                | None ->
                  (* the skipped-interp cell is still agree-checked:
                     same plan, same backend configuration, on the
                     deterministic sample store *)
                  let siv, _ =
                    Optimizer.Pipeline.execute
                      ~backend:(Exec.Interp Eval.Hashed) ~db:check_db report
                  in
                  let scv, _ =
                    Optimizer.Pipeline.execute ~backend:Exec.Compiled ~layout
                      ~jobs
                      ?coldb:(pick_coldb check_coldb)
                      ~db:check_db report
                  in
                  Some (Exec.agree ~db:check_db scv siv)
              in
              {
                query = name;
                size;
                layout = Exec.layout_name layout;
                (* the requested grid cell, not [st.Exec.jobs]: below
                   one morsel the executor declines the pool, and the
                   tiny-input gate below must still find the cell *)
                jobs;
                interp_ms = Option.map (fun (_, s) -> s *. 1e3) interp;
                compiled_ms = compiled_s *. 1e3;
                compile_us = st.Exec.compile_us;
                speedup = Option.map (fun (_, s) -> s /. compiled_s) interp;
                stages = st.Exec.stages;
                col_kernels = st.Exec.col_kernels;
                morsels = st.Exec.morsels;
                degrades = List.length st.Exec.col_degrades;
                fell_back = st.Exec.fell_back;
                agrees;
                agrees_sampled;
                gate_ms;
              })
            configs)
        reports)
    sizes

let table rows =
  Fmt.pr "@.## compiled_execution (interp-hashed vs fused loops)@.";
  Fmt.pr "  %-14s %9s %-8s %4s %12s %12s %9s %7s %7s  %s@." "query" "size"
    "layout" "jobs" "interp" "compiled" "speedup" "kernels" "morsels" "check";
  List.iter
    (fun r ->
      let interp =
        match r.interp_ms with
        | Some ms -> Fmt.str "%9.2f ms" ms
        | None -> Fmt.str "%12s" "(skipped)"
      in
      let speedup =
        match r.speedup with
        | Some s -> Fmt.str "%8.1fx" s
        | None -> Fmt.str "%9s" "-"
      in
      Fmt.pr "  %-14s %9d %-8s %4d %s %9.2f ms %s %7d %7d  %s@." r.query r.size
        r.layout r.jobs interp r.compiled_ms speedup r.col_kernels r.morsels
        (match (r.agrees, r.agrees_sampled) with
        | Some false, _ -> "MISMATCH"
        | _, Some false -> "MISMATCH-SAMPLED"
        | _ when r.fell_back -> "fell-back"
        | Some true, _ -> "ok"
        | None, Some true -> "ok-sampled"
        | None, None -> "UNCHECKED"))
    rows;
  List.iter
    (fun r ->
      Option.iter
        (fun (i, c) ->
          Fmt.pr
            "  gate %s at %d (%s): interp %.2f ms, compiled %.2f ms, %.2fx \
             (medians of %d interleaved runs)@."
            r.query r.size r.layout i c (i /. c) gate_runs)
        r.gate_ms)
    rows

(* Hard gates over a finished row set; any failure exits non-zero.
   Fails on a disagreement and on a cell nothing checked — a skipped
   interpreted run must leave a sampled check behind. *)
let check_rows rows =
  List.iter
    (fun r ->
      let cell =
        Fmt.str "%s at %d (%s, jobs %d)" r.query r.size r.layout r.jobs
      in
      match (r.agrees, r.agrees_sampled) with
      | Some false, _ ->
        Fmt.failwith "exec bench: %s disagrees with the interpreter" cell
      | _, Some false ->
        Fmt.failwith
          "exec bench: %s disagrees with the interpreter on the %d-employee \
           sample"
          cell sample_size
      | None, None ->
        Fmt.failwith "exec bench: %s was reported without any agree check" cell
      | _ -> ())
    rows;
  (* rich_mentors compiled must not run slower than the interpreter at
     benchmark scale (it regressed to 0.84-0.91x before the dedup checks
     went geometric and the translator's dead env-threading got
     peepholed), by the medians of the interleaved pairs. *)
  List.iter
    (fun r ->
      match r.gate_ms with
      | Some (interp, compiled) when interp /. compiled < 1.0 ->
        Fmt.failwith
          "exec bench: rich_mentors compiled regressed below the interpreter \
           at %d (medians of %d interleaved runs: %.2f ms interpreted, %.2f \
           ms compiled, %.2fx)"
          r.size gate_runs interp compiled (interp /. compiled)
      | _ -> ())
    rows;
  (* Below one morsel (65 536 rows) nothing can fan out, so extra jobs
     must cost (almost) nothing; test_columnar pins the mechanism (no
     pool is spawned).  A small absolute slack keeps sub-0.1 ms cells
     from tripping on scheduler noise. *)
  let one_morsel = 65_536 in
  List.iter
    (fun r ->
      if r.layout = "columnar" && r.jobs > 1 && r.size <= one_morsel then
        match
          List.find_opt
            (fun b ->
              b.query = r.query && b.size = r.size && b.layout = r.layout
              && b.jobs = 1)
            rows
        with
        | Some base when r.compiled_ms > (2.0 *. base.compiled_ms) +. 0.05 ->
          Fmt.failwith
            "exec bench: %s at %d (%s) pays parallel dispatch below one \
             morsel: jobs=%d %.3f ms vs jobs=1 %.3f ms"
            r.query r.size r.layout r.jobs r.compiled_ms base.compiled_ms
        | _ -> ())
    rows

let json ~mode rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Fmt.str "  \"mode\": %S,\n" mode);
  Buffer.add_string buf
    (Fmt.str "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"rows\": [\n";
  let fopt fmt = function None -> "null" | Some v -> Fmt.str fmt v in
  let bopt = function None -> "null" | Some b -> Bool.to_string b in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"query\": %S, \"size\": %d, \"layout\": %S, \"jobs\": %d, \
            \"interp_ms\": %s, \"compiled_ms\": %.3f, \"compile_us\": %.1f, \
            \"speedup\": %s, \"stages\": %d, \"col_kernels\": %d, \
            \"morsels\": %d, \"degrades\": %d, \"fell_back\": %b, \
            \"agrees\": %s, \"agrees_sampled\": %s, \
            \"gate_interp_median_ms\": %s, \"gate_compiled_median_ms\": \
            %s}%s\n"
           r.query r.size r.layout r.jobs
           (fopt "%.3f" r.interp_ms)
           r.compiled_ms r.compile_us
           (fopt "%.2f" r.speedup)
           r.stages r.col_kernels r.morsels r.degrades r.fell_back
           (bopt r.agrees) (bopt r.agrees_sampled)
           (fopt "%.3f" (Option.map fst r.gate_ms))
           (fopt "%.3f" (Option.map snd r.gate_ms))
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let () =
  let fast =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--fast" ] -> true
    | _ ->
      prerr_endline "usage: main.exe [--fast]";
      exit 2
  in
  Fmt.pr "KOLA compiled-execution benchmark@.";
  Fmt.pr "=================================@.";
  let sizes = if fast then [ 1_000; 100_000 ] else [ 1_000; 100_000; 1_000_000 ] in
  (* The layout × jobs grid: the row baseline, sequential columnar, and
     columnar fanned out over 4 domains (morsel boundaries and merge
     order are jobs-independent, so every cell must agree). *)
  let configs = [ (Exec.Row, 1); (Exec.Columnar, 1); (Exec.Columnar, 4) ] in
  let rows = rows ~sizes ~configs in
  table rows;
  check_rows rows;
  let out = "BENCH_exec.json" in
  let oc = open_out out in
  output_string oc (json ~mode:(if fast then "fast" else "full") rows);
  close_out oc;
  Fmt.pr "  wrote %s@." out;
  Fmt.pr "@.done.@."
