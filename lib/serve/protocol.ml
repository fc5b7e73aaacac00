(* Wire protocol of the compile service: JSONL requests and responses.

   One request or response per line, compact JSON.  Requests describe a
   compile problem the same way the CLI does (benchmark + device topology +
   options, or an inline QASM circuit); responses carry either the
   evaluation metrics with the degradation-ladder trace (tier, retries,
   per-tier latency) or a structured error.  Parsing is total: every
   malformed input maps to [Bad_request] with a reason, never an
   exception escaping into the daemon loop. *)

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_request msg)) fmt

type request = {
  id : string;
  bench : string;
  qasm : string option;
  n : int;
  topology : string;
  seed : int;
  algorithm : string;
  deadline_ms : float option;
  warm_start : bool;
  decompose_components : bool;
  crosstalk_distance : int;
}

(* -- request decoding -------------------------------------------------------- *)

let benchmark_names = [ "bv"; "qaoa"; "ising"; "qgan"; "xeb"; "ghz"; "qft" ]

let get_string ?default doc key =
  match Json.member key doc with
  | Some (Json.String s) -> s
  | Some _ -> bad "field %S must be a string" key
  | None -> ( match default with Some d -> d | None -> bad "missing field %S" key)

let get_int ~default doc key =
  match Json.member key doc with
  | Some (Json.Int i) -> i
  | Some _ -> bad "field %S must be an integer" key
  | None -> default

let get_bool ~default doc key =
  match Json.member key doc with
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" key
  | None -> default

(* The retired allocation switches: a request may leave them out or set them
   false, and a true one is refused rather than silently ignored. *)
let get_retired doc key =
  if get_bool ~default:false doc key then
    bad "field %S is no longer supported: frequency allocation has one path" key;
  false

let get_float_opt doc key =
  match Json.member key doc with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some Json.Null | None -> None
  | Some _ -> bad "field %S must be a number" key

let request_of_json doc =
  (match doc with Json.Obj _ -> () | _ -> bad "request must be a JSON object");
  let qasm =
    match Json.member "qasm" doc with
    | Some (Json.String s) -> Some s
    | Some Json.Null | None -> None
    | Some _ -> bad "field \"qasm\" must be a string"
  in
  let deadline_ms = get_float_opt doc "deadline_ms" in
  (match deadline_ms with
  | Some d when (not (Float.is_finite d)) || d < 0.0 ->
    bad "field \"deadline_ms\" must be finite and >= 0"
  | _ -> ());
  let req =
    {
      id = get_string doc "id";
      bench = get_string ~default:"bv" doc "bench";
      qasm;
      n = get_int ~default:9 doc "n";
      topology = get_string ~default:"grid" doc "topology";
      seed = get_int ~default:2020 doc "seed";
      algorithm = get_string ~default:"color-dynamic" doc "algorithm";
      deadline_ms;
      warm_start = get_retired doc "warm_start";
      decompose_components = get_retired doc "decompose_components";
      crosstalk_distance = get_int ~default:1 doc "crosstalk_distance";
    }
  in
  if req.n < 1 then bad "field \"n\" must be >= 1";
  if req.crosstalk_distance < 0 then bad "field \"crosstalk_distance\" must be >= 0";
  if req.qasm = None && not (List.mem req.bench benchmark_names) then
    bad "unknown benchmark %S (valid: %s)" req.bench (String.concat " " benchmark_names);
  req

let parse_request line =
  match Json.parse line with
  | doc -> request_of_json doc
  | exception Json.Parse_error msg -> bad "invalid JSON: %s" msg

(* The canonical identity of the compile problem a request poses — everything
   that determines the answer, nothing that does not (id, deadline).  Keys
   the stale-witness cache. *)
let cache_key req =
  Printf.sprintf "%s|%d|%s|%d|%s|%d"
    (match req.qasm with None -> req.bench | Some q -> "qasm:" ^ Snapshot.fnv64 q)
    req.n req.topology req.seed req.algorithm req.crosstalk_distance

(* -- realizing a request into a compile problem ------------------------------ *)

let parse_topology spec n =
  match String.split_on_char ':' spec with
  | [ "grid" ] -> Topology.square_grid n
  | [ "path" ] -> Topology.path n
  | [ "ring" ] -> Topology.ring n
  | [ "complete" ] -> Topology.complete n
  | [ "1ex"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 2 -> Topology.express_1d n k
    | _ -> bad "topology 1ex:<k> needs an integer k >= 2")
  | [ "2ex"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 2 ->
      let side = int_of_float (sqrt (float_of_int n)) in
      if side * side <> n then bad "topology 2ex needs a square qubit count"
      else Topology.express_2d side side k
    | _ -> bad "topology 2ex:<k> needs an integer k >= 2")
  | _ -> bad "unknown topology %S (try grid, path, ring, 1ex:4, 2ex:2)" spec

let make_benchmark name n seed device =
  let rng = Rng.create seed in
  match name with
  | "bv" -> Bv.circuit ~n ()
  | "qaoa" -> Qaoa.circuit rng ~n ()
  | "ising" -> Ising.circuit ~n ()
  | "qgan" -> Qgan.circuit rng ~n ()
  | "xeb" ->
    let classes = Baseline_gmon.edge_classes device in
    Xeb.circuit rng ~graph:(Device.graph device) ~classes ~cycles:5 ()
  | "ghz" -> Ghz.circuit ~fanout:true ~n ()
  | "qft" -> Qft.circuit ~n ()
  | other -> bad "unknown benchmark %S" other

let realize req =
  let device = Device.create ~seed:req.seed (parse_topology req.topology req.n) in
  let circuit =
    match req.qasm with
    | Some text -> (
      try Qasm.of_string text
      with Qasm.Parse_error (line, msg) -> bad "qasm line %d: %s" line msg)
    | None -> make_benchmark req.bench req.n req.seed device
  in
  (device, circuit)

(* -- responses --------------------------------------------------------------- *)

type attempt = { a_tier : string; a_ms : float; a_outcome : string }

type ok_body = {
  ok_id : string;
  tier : string;
  algorithm : string;
  retries : int;
  latency_ms : float;
  attempts : attempt list;
  metrics : Schedule.metrics;
}

type error_code = Overloaded | Bad_request_code | Internal

let error_code_name = function
  | Overloaded -> "overloaded"
  | Bad_request_code -> "bad_request"
  | Internal -> "internal"

type response =
  | Ok_response of ok_body
  | Error_response of { err_id : string; code : error_code; message : string }

let json_of_metrics (m : Schedule.metrics) =
  Json.Obj
    [
      ("success", Json.Float m.Schedule.success);
      ("log10_success", Json.Float m.Schedule.log10_success);
      ("gate_error", Json.Float m.Schedule.gate_error);
      ("crosstalk_error", Json.Float m.Schedule.crosstalk_error);
      ("decoherence_error", Json.Float m.Schedule.decoherence_error);
      ("depth", Json.Int m.Schedule.depth);
      ("total_time_ns", Json.Float m.Schedule.total_time);
      ("n_gates", Json.Int m.Schedule.n_gates);
      ("n_two_qubit", Json.Int m.Schedule.n_two_qubit);
    ]

(* [scrub] zeroes every latency field: the serve smoke test byte-compares
   responses across job counts, and wall-clock is the one legitimately
   nondeterministic part of a response. *)
let response_to_json ?(scrub = false) = function
  | Ok_response b ->
    let ms v = Json.Float (if scrub then 0.0 else v) in
    Json.Obj
      [
        ("id", Json.String b.ok_id);
        ("status", Json.String "ok");
        ("tier", Json.String b.tier);
        ("algorithm", Json.String b.algorithm);
        ("retries", Json.Int b.retries);
        ("latency_ms", ms b.latency_ms);
        ( "attempts",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("tier", Json.String a.a_tier);
                     ("ms", ms a.a_ms);
                     ("outcome", Json.String a.a_outcome);
                   ])
               b.attempts) );
        ("metrics", json_of_metrics b.metrics);
      ]
  | Error_response { err_id; code; message } ->
    Json.Obj
      [
        ("id", Json.String err_id);
        ("status", Json.String "error");
        ("code", Json.String (error_code_name code));
        ("message", Json.String message);
      ]

let response_line ?scrub resp = Json.to_string ~pretty:false (response_to_json ?scrub resp)
