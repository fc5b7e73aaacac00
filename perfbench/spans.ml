(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function: name, start,
   end, the span that caused it and the request it belongs to.  Spans stay
   in memory while the run measures and are written out once, at the end,
   as Chrome trace-event JSON (opens offline in Perfetto or
   chrome://tracing).  A layer's self time is its span's duration minus the
   part of that interval its child spans cover. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  req : string;
  start_ns : int64;
  end_ns : int64;
}

type recorder = {
  mutable next_id : int;
  mutable open_ids : int list;  (* innermost first *)
  mutable spans : span list;  (* most recently closed first *)
}

let create () = { next_id = 0; open_ids = []; spans = [] }

let spans r = List.rev r.spans

let with_span r ?(req = "") name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.open_ids with p :: _ -> Some p | [] -> None in
  r.open_ids <- id :: r.open_ids;
  let start_ns = Deadline.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let end_ns = Deadline.now_ns () in
      r.open_ids <- List.tl r.open_ids;
      r.spans <- { id; name; parent; req; start_ns; end_ns } :: r.spans)
    f

let duration_ms s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e6

(* Length of the union of [intervals] clipped to [lo, hi], in ms. *)
let covered_ms ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec sweep acc cur = function
    | [] -> (
      match cur with None -> acc | Some (a, b) -> Int64.add acc (Int64.sub b a))
    | (a, b) :: rest -> (
      match cur with
      | None -> sweep acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if Int64.compare a cb <= 0 then sweep acc (Some (ca, max cb b)) rest
        else sweep (Int64.add acc (Int64.sub cb ca)) (Some (a, b)) rest)
  in
  Int64.to_float (sweep 0L None sorted) /. 1e6

(* Every span paired with its self time (ms). *)
let self_times all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun c ->
      Option.iter (fun p -> Hashtbl.add children p (c.start_ns, c.end_ns)) c.parent)
    all;
  List.map
    (fun s ->
      let covered = covered_ms ~lo:s.start_ns ~hi:s.end_ns (Hashtbl.find_all children s.id) in
      (s, duration_ms s -. covered))
    all

(* Per-name totals of self time (ms), in first-seen order. *)
let self_by_name all =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s, v) ->
      match Hashtbl.find_opt table s.name with
      | Some acc -> Hashtbl.replace table s.name (acc +. v)
      | None ->
        Hashtbl.add table s.name v;
        order := s.name :: !order)
    (self_times all);
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order

(* Sum of the durations of the root spans (no parent), ms. *)
let root_ms all =
  List.fold_left
    (fun acc s -> if s.parent = None then acc +. duration_ms s else acc)
    0.0 all

(* Traced end-to-end time over untraced end-to-end time for the same work. *)
let overhead_share ~traced_s ~untraced_s =
  if untraced_s <= 0.0 then invalid_arg "Spans.overhead_share: untraced time must be positive";
  traced_s /. untraced_s

let to_chrome_json all =
  let origin =
    List.fold_left (fun acc s -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      (match all with s :: _ -> s.start_ns | [] -> 0L)
      all
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", Json.Float (us s.start_ns));
        ("dur", Json.Float (us s.end_ns -. us s.start_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
              ("req", Json.String s.req);
            ] );
      ]
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.map event all)); ("displayTimeUnit", Json.String "ms") ]

let write_chrome ~path all =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~pretty:false (to_chrome_json all)))
