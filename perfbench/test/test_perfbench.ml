(* Self-test of the benchmark's own arithmetic and input generation. *)

open Perfbench

let span id ?parent name a b =
  let ns ms = Int64.of_int (ms * 1_000_000) in
  { Spans.id; name; parent; req = "r"; start_ns = ns a; end_ns = ns b }

(* compile [0, 100] ms with passes [10, 30] and [20, 50] (overlapping, so
   they cover 40 ms together), a child [90, 120] that leaks past its parent
   (10 ms inside), and a grandchild that counts only against its own parent *)
let tree =
  [
    span 0 "compile" 0 100;
    span 1 ~parent:0 "place" 10 30;
    span 2 ~parent:0 "schedule" 20 50;
    span 3 ~parent:0 "evaluate" 90 120;
    span 4 ~parent:2 "schedule" 25 35;
    span 5 "compile" 200 210;
  ]

let close = Alcotest.float 1e-9

let test_self_times () =
  let self = List.map (fun (s, v) -> (s.Spans.id, v)) (Spans.self_times tree) in
  Alcotest.check close "root minus the union of its children" 50.0 (List.assoc 0 self);
  Alcotest.check close "leaf" 20.0 (List.assoc 1 self);
  Alcotest.check close "minus its own child only" 20.0 (List.assoc 2 self);
  Alcotest.check close "leaf past its parent" 30.0 (List.assoc 3 self);
  Alcotest.check close "childless root" 10.0 (List.assoc 5 self)

let test_self_by_name () =
  Alcotest.(check (list (pair string close)))
    "first-seen order, summed per name"
    [ ("compile", 60.0); ("place", 20.0); ("schedule", 30.0); ("evaluate", 30.0) ]
    (Spans.self_by_name tree);
  Alcotest.check close "roots only" 110.0 (Spans.root_ms tree)

let test_overhead () =
  Alcotest.check close "traced over untraced" 1.25
    (Spans.overhead_share ~traced_s:2.5 ~untraced_s:2.0);
  Alcotest.check_raises "untraced time must be positive"
    (Invalid_argument "Spans.overhead_share: untraced time must be positive") (fun () ->
      ignore (Spans.overhead_share ~traced_s:1.0 ~untraced_s:0.0))

let test_recorder () =
  let r = Spans.create () in
  Spans.with_span r ~req:"a" "compile" (fun () -> Spans.with_span r ~req:"a" "place" ignore);
  match Spans.spans r with
  | [ place; compile ] ->
    Alcotest.(check (option int))
      "child points at parent" (Some compile.Spans.id) place.Spans.parent;
    Alcotest.(check (option int)) "root has no parent" None compile.Spans.parent;
    Alcotest.(check bool) "nested in time" true
      (compile.Spans.start_ns <= place.Spans.start_ns && place.Spans.end_ns <= compile.Spans.end_ns)
  | _ -> Alcotest.fail "expected two spans"

let test_chrome () =
  let doc = Fastsc_util.Json.to_string (Spans.to_chrome_json tree) in
  match Fastsc_util.Json.member "traceEvents" (Fastsc_util.Json.parse doc) with
  | Some (Fastsc_util.Json.List events) ->
    Alcotest.(check int) "one complete event per span" 6 (List.length events);
    List.iter
      (fun e ->
        Alcotest.(check bool)
          "ph X" true
          (Fastsc_util.Json.member "ph" e = Some (Fastsc_util.Json.String "X")))
      events
  | _ -> Alcotest.fail "no traceEvents list"

let test_determinism () =
  Alcotest.(check string) "same seed, same bytes" (Inputs.fingerprint 11) (Inputs.fingerprint 11);
  Alcotest.(check bool)
    "another seed, other inputs" true
    (Inputs.fingerprint 11 <> Inputs.fingerprint 12)

let test_stream_shape () =
  let stream = Inputs.serve_stream 5 ~blocks:3 in
  Alcotest.(check int) "whole blocks" (3 * Inputs.block_size) (List.length stream);
  let ids = List.map (fun r -> r.Inputs.request.Fastsc_serve.Protocol.id) stream in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  let repeats = List.length (List.filter (fun r -> r.Inputs.repeat) stream) in
  Alcotest.(check int) "a third are repeats" (3 * List.length Inputs.repeat_slots) repeats;
  (* every repeat re-poses a cache key seen earlier in the stream *)
  ignore
    (List.fold_left
       (fun seen r ->
         let key = Fastsc_serve.Protocol.cache_key r.Inputs.request in
         if r.Inputs.repeat then
           Alcotest.(check bool) "repeat follows its original" true (List.mem key seen);
         key :: seen)
       [] stream);
  List.iter
    (fun r ->
      Alcotest.(check string) "the line decodes to the request"
        (Fastsc_serve.Protocol.cache_key r.Inputs.request)
        (Fastsc_serve.Protocol.cache_key (Fastsc_serve.Protocol.parse_request r.Inputs.line)))
    stream

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "self time by name" `Quick test_self_by_name;
          Alcotest.test_case "overhead share" `Quick test_overhead;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
          Alcotest.test_case "chrome trace events" `Quick test_chrome;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "serve stream shape" `Quick test_stream_shape;
        ] );
    ]
