(* Shared helpers of the ledger: clocks, order statistics, seeded
   shuffles, peak memory, and the pass loop every workload measures
   with. *)

let now = Span.now

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median = function
  | [] -> nan
  | l ->
    let a = sorted_array l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Summed in sorted order, so the same values in any order give the
   same bits. *)
let geomean = function
  | [] -> nan
  | l ->
    exp
      (Array.fold_left (fun acc v -> acc +. log v) 0. (sorted_array l)
      /. float_of_int (List.length l))

(* The highest percentile a sample supports: the value with at least ten
   samples beyond it, with that percentile.  Fewer than eleven samples
   support no tail, and the maximum is reported. *)
let tail l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else if n < 11 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Datagen.Store.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* VmHWM of a process, in MB (0. where /proc is unavailable). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.)
            else scan ()
        in
        scan ())

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Run [pass] until [seconds] have elapsed, at least once; the wall time
   of each pass, in seconds.  [before] runs untimed ahead of each pass. *)
let passes ?(before = ignore) ~seconds pass =
  let stop = now () +. seconds in
  let rec go acc =
    before ();
    let t0 = now () in
    pass ();
    let acc = (now () -. t0) :: acc in
    if now () < stop then go acc else List.rev acc
  in
  go []

(* Set-up repeated [reps] times: the median duration and the last
   set-up's value.  Each earlier value is released through [drop] and
   collected before the next set-up starts, so peak memory holds one. *)
let setup ?(drop = ignore) ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to max 1 reps do
    Option.iter drop !last;
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  (median !times, Option.get !last)

(* Per-item time samples. *)
module Samples = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name v =
    Hashtbl.replace t name (v :: Option.value ~default:[] (Hashtbl.find_opt t name))

  (* Each item's median time, by item name. *)
  let medians (t : t) =
    List.sort compare (Hashtbl.fold (fun n l acc -> (n, median l) :: acc) t [])
end

(* What a workload run hands back to the report. *)
type report = {
  e2e : (string * float) list;  (** end-to-end metrics by name *)
  layers : (string * float) list;
      (** per-layer metrics by name; a layer the workload never calls is
          absent and reads 0 *)
  rows : (string * float * string) list;
      (** printed only: the per-item rows, tails and lags *)
  attempted : int;
  failures : string list;  (** one line per failed operation or gate *)
}

let overhead_pct ~traced ~untraced =
  100. *. ((median traced /. median untraced) -. 1.)

(* The shape of the closed-loop workloads.  [prepare] builds the inputs
   and [pass env samples items] answers every item once in the given
   order, timing each into [samples] when given.  Set-up is [prepare]
   plus one pass over [items] as listed, repeated [reps] times; the last
   set-up's pass is the warm-up and goes through [gate], and peak memory
   is read when set-up ends, so neither depends on the seed.  Measured
   passes take the items in orders drawn from [rng]: [pass_s] is their
   median, and [query_geomean_ms] the geometric mean of each item's
   median time.  When [traced], as many traced passes follow for the
   per-layer metrics, whose counts come from the last traced pass.
   [row] names an item's printed row. *)
let closed_loop ~rng ~seconds ~reps ~traced ~row ~items ~prepare ~pass ~gate
    ~counts ~cost =
  let attempted = ref 0 in
  let run env samples items =
    let rs = pass env samples items in
    attempted := !attempted + List.length rs;
    rs
  in
  let setup_s, (env, warm) =
    setup ~reps (fun () ->
        let env = prepare () in
        (env, run env None items))
  in
  let peak_rss_mb = self_peak_rss_mb () in
  let failures = List.filter_map (gate env) warm in
  let samples = Samples.create () in
  let untraced =
    passes
      ~seconds:(if traced then seconds /. 2. else seconds)
      (fun () -> ignore (run env (Some samples) (shuffle rng items)))
  in
  let layers =
    if not traced then []
    else begin
      Span.start ();
      let last = ref [] and timed_path = ref [] in
      ignore
        (passes ~seconds:(seconds /. 2.) (fun () ->
             (* a traced pass also re-runs the attribution calls, so its
                timed path is the sum of its roots, not its wall time *)
             let before = Span.root_seconds () in
             last := run env None (shuffle rng items);
             timed_path := (Span.root_seconds () -. before) :: !timed_path));
      Span.stop ();
      ("bench.trace_overhead_pct", overhead_pct ~traced:!timed_path ~untraced)
      :: counts !last
    end
  in
  let per_item = Samples.medians samples in
  {
    e2e =
      [
        ("setup_s", setup_s);
        ("pass_s", median untraced);
        ("query_geomean_ms", geomean (List.map snd per_item));
        ("plan_cost_geomean", geomean (List.map cost warm));
        ("peak_rss_mb", peak_rss_mb);
      ];
    layers;
    rows =
      List.map (fun (n, ms) -> (row n, ms, "ms")) per_item
      @ [ ("passes", float_of_int (List.length untraced), "count") ];
    attempted = !attempted;
    failures;
  }
