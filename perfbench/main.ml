(* Benchmark entry point: runs one workload and prints its metrics.

     main.exe --workload W --seed N --seconds S --trace 0|1 --fastsc PATH --out DIR

   Every metric goes to stdout as "name value unit"; the last line is one
   JSON object {correct, attempted, failed, metrics}.  With --trace 1 the
   metrics are the per-layer ones and the span timeline is written to
   DIR/trace-W-N.json (Chrome trace-event format).  Exits 1 when any output
   check failed. *)

open Perfbench
module Json = Fastsc_util.Json

let workloads = [ "qaoa-frontend"; "nisq-mix"; "serve-deadline"; "validate" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1 --fastsc PATH --out DIR");
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (arg k) with Some v -> v | None -> usage () in
  let workload = arg "workload" in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace = match arg "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let trace_path = Filename.concat (arg "out") (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let result =
    match workload with
    | "qaoa-frontend" ->
      Workloads.compile_workload ~programs:(Inputs.qaoa_frontend seed) ~seconds ~trace ~trace_path
    | "nisq-mix" ->
      Workloads.compile_workload ~programs:(Inputs.nisq_mix seed) ~seconds ~trace ~trace_path
    | "validate" ->
      Workloads.validate_workload ~programs:(Inputs.validate_programs seed) ~seed ~seconds ~trace
        ~trace_path
    | "serve-deadline" ->
      Workloads.serve_workload ~fastsc:(arg "fastsc") ~seed ~seconds ~trace ~trace_path
    | _ -> usage ()
  in
  let open Workloads in
  List.iter (fun note -> Printf.eprintf "check failed: %s\n" note) result.notes;
  List.iter (fun mt -> Printf.printf "%-32s %.6g %s\n" mt.name mt.value mt.unit_) result.metrics;
  let metrics =
    List.map
      (fun mt ->
        (mt.name, Json.Obj [ ("value", Json.Float mt.value); ("unit", Json.String mt.unit_) ]))
      result.metrics
  in
  let doc =
    Json.Obj
      [
        ("correct", Json.Bool (result.failed = 0));
        ("attempted", Json.Int result.attempted);
        ("failed", Json.Int result.failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  print_endline (Json.to_string ~pretty:false doc);
  exit (if result.failed = 0 then 0 else 1)
