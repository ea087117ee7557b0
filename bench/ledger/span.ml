(* The ledger's own spans: recorded around calls into each layer's public
   functions, kept in memory, and written at exit as Chrome trace_event
   JSON.  Nothing is recorded unless [start] was called, so an untraced
   run pays one boolean test per call site.

   Two kinds of child span exist.  Timed children nest inside their
   parent on the timed path (lane 0).  Attribution children re-run a
   sub-step of their parent on the same inputs after the root closed
   (lane 1): they split the parent's time into parts without sitting
   inside the timed path.  A span's self time is its duration minus its
   children's, so the self times of a root's tree sum to the root's
   duration exactly. *)

let now = Kola_telemetry.Telemetry.now

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** the root's item or request id, shared by its tree *)
  lane : int;  (** Chrome thread: 0 timed path, 1 attribution, 2+ clients *)
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let epoch = ref 0.

let start () =
  on := true;
  spans := [];
  next_id := 0;
  open_ids := [];
  epoch := now ()

let stop () = on := false

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let record ?(parent = -1) ?(req = 0) ?(lane = 0) name t0 t1 =
  if not !on then -1
  else begin
    let id = fresh () in
    spans := { id; name; parent; req; lane; t0; t1 } :: !spans;
    id
  end

(* Time [f] as a span nested in the innermost open timed span; [f]
   receives the span's id (-1 when tracing is off) so that attribution
   children can name it later. *)
let timed ?(req = 0) name f =
  if not !on then f (-1)
  else begin
    let id = fresh () in
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        spans :=
          { id; name; parent; req; lane = 0; t0; t1 = now () } :: !spans)
      (fun () -> f id)
  end

(* Re-run a sub-step of span [parent] outside the timed path. *)
let attribute ~parent ?(req = 0) name f =
  if parent < 0 then ()
  else begin
    let t0 = now () in
    ignore (f ());
    ignore (record ~parent ~req ~lane:1 name t0 (now ()))
  end

let root_seconds () =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc)
    0. !spans

(* Self seconds per span name, summed over every recorded tree. *)
let self_seconds () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    !spans;
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (Hashtbl.fold (fun n v acc -> (n, v) :: acc) by_name [])

let write_chrome file =
  let us t = (t -. !epoch) *. 1e6 in
  let lanes =
    List.sort_uniq compare (List.map (fun s -> s.lane) !spans)
  in
  let lane_name = function
    | 0 -> "timed path"
    | 1 -> "attribution"
    | n -> Printf.sprintf "client connection %d" (n - 2)
  in
  let meta =
    List.map
      (fun l ->
        Printf.sprintf
          {|  {"ph": "M", "pid": 1, "tid": %d, "name": "thread_name", "args": {"name": "%s"}}|}
          l (lane_name l))
      lanes
  in
  let events =
    List.rev_map
      (fun s ->
        Printf.sprintf
          {|  {"ph": "X", "pid": 1, "tid": %d, "name": "%s", "cat": "ledger", "ts": %.3f, "dur": %.3f, "args": {"span": %d, "parent": %d, "req": %d}}|}
          s.lane s.name (us s.t0) ((s.t1 -. s.t0) *. 1e6) s.id s.parent s.req)
      !spans
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      output_string oc (String.concat ",\n" (meta @ events));
      output_string oc "\n]}\n")
