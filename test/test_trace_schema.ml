(* Golden test for the `fastsc compile --trace` JSON artifact: the schema is
   a documented interface (docs/MANUAL.md) that downstream tooling parses, so
   every key and the cross-counter invariants are pinned here.  Parsed with
   the in-tree Json reader rather than string matching, so a formatting-only
   change cannot mask a dropped field. *)
open Helpers

let binary = Filename.concat (Filename.concat ".." "bin") "fastsc.exe"

let trace_doc () =
  let out_file = Filename.temp_file "fastsc_trace" ".json" in
  let command =
    Printf.sprintf "%s compile --bench ghz --size 4 --trace > %s 2> /dev/null"
      (Filename.quote binary) (Filename.quote out_file)
  in
  let code = Sys.command command in
  check_int "trace run exits 0" 0 code;
  let doc = Json.parse_file out_file in
  Sys.remove out_file;
  doc

let field name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

let as_int name doc =
  match field name doc with
  | Json.Int i -> i
  | v -> Alcotest.failf "field %S is not an int: %s" name (Json.to_string ~pretty:false v)

let as_number name doc =
  match field name doc with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | v -> Alcotest.failf "field %S is not a number: %s" name (Json.to_string ~pretty:false v)

(* The pipeline passes in execution order — the same six names Pass.Pipeline
   registers for every scheduler (place/route are identity for all-to-all
   benches but still traced). *)
let pipeline = [ "place"; "route"; "decompose"; "optimize"; "schedule"; "evaluate" ]

let pass_entries doc =
  match field "passes" doc with
  | Json.List entries -> entries
  | v -> Alcotest.failf "passes is not a list: %s" (Json.to_string ~pretty:false v)

let test_top_level_shape () =
  let doc = trace_doc () in
  (match field "algorithm" doc with
  | Json.String a -> check_true "algorithm named" (String.length a > 0)
  | v -> Alcotest.failf "algorithm is not a string: %s" (Json.to_string ~pretty:false v));
  List.iter
    (fun key -> ignore (field key doc))
    [ "passes"; "stats"; "caches"; "metrics" ]

let test_every_pass_traced () =
  let doc = trace_doc () in
  let names =
    List.map
      (fun entry ->
        match field "pass" entry with
        | Json.String s -> s
        | v -> Alcotest.failf "pass name is not a string: %s" (Json.to_string ~pretty:false v))
      (pass_entries doc)
  in
  check_true "all pipeline passes traced, in order" (names = pipeline)

let test_per_pass_fields () =
  let doc = trace_doc () in
  List.iter
    (fun entry ->
      check_true "wall_ms non-negative" (as_number "wall_ms" entry >= 0.0);
      check_true "smt_solves non-negative" (as_int "smt_solves" entry >= 0);
      let solver = field "solver_cache" entry in
      List.iter
        (fun k -> check_true (k ^ " non-negative") (as_int k solver >= 0))
        [ "hits"; "misses" ];
      let pair = field "pair_cache" entry in
      List.iter
        (fun k -> check_true (k ^ " non-negative") (as_int k pair >= 0))
        [ "hits"; "misses" ])
    (pass_entries doc)

let test_counter_invariants () =
  (* the per-pass numbers are deltas against counters reset at pipeline
     start, so they must reconcile exactly with the final totals *)
  let doc = trace_doc () in
  let passes = pass_entries doc in
  let caches = field "caches" doc in
  let sum f = List.fold_left (fun acc entry -> acc + f entry) 0 passes in
  check_int "smt_solves_total is the sum of per-pass solves"
    (as_int "smt_solves_total" caches)
    (sum (as_int "smt_solves"));
  check_true "the pipeline solved at least once" (as_int "smt_solves_total" caches > 0);
  let solver = field "solver" caches in
  List.iter
    (fun k ->
      check_int
        (Printf.sprintf "solver %s deltas sum to the final total" k)
        (as_int k solver)
        (sum (fun entry -> as_int k (field "solver_cache" entry))))
    [ "hits"; "misses" ];
  check_true "solver entries reported" (as_int "entries" solver >= 0);
  let pair = field "pair" caches in
  List.iter
    (fun k ->
      check_int
        (Printf.sprintf "pair %s deltas sum to the final total" k)
        (as_int k pair)
        (sum (fun entry -> as_int k (field "pair_cache" entry))))
    [ "hits"; "misses" ];
  check_true "pair entries reported" (as_int "entries" pair >= 0)

let test_metrics_fields () =
  let doc = trace_doc () in
  let metrics = field "metrics" doc in
  List.iter
    (fun k -> ignore (as_number k metrics))
    [
      "success";
      "log10_success";
      "gate_error";
      "crosstalk_error";
      "decoherence_error";
      "total_time_ns";
    ];
  List.iter
    (fun k -> check_true (k ^ " positive") (as_int k metrics > 0))
    [ "depth"; "n_gates"; "n_two_qubit" ];
  let stats = field "stats" doc in
  check_true "cycle count positive" (as_int "cycles" stats > 0)

let suite =
  [
    Alcotest.test_case "top-level shape" `Quick test_top_level_shape;
    Alcotest.test_case "every pass traced" `Quick test_every_pass_traced;
    Alcotest.test_case "per-pass fields" `Quick test_per_pass_fields;
    Alcotest.test_case "counter invariants" `Quick test_counter_invariants;
    Alcotest.test_case "metrics fields" `Quick test_metrics_fields;
  ]
