(* Output checks.  Each returns [Error reason] instead of raising, so a
   failed check counts as one failed operation and the run carries on. *)

let ( let* ) = Result.bind

let no_nan (m : Schedule.metrics) =
  let fields =
    [
      m.Schedule.success; m.Schedule.log10_success; m.Schedule.gate_error;
      m.Schedule.crosstalk_error; m.Schedule.decoherence_error;
      m.Schedule.log10_gate_survival; m.Schedule.log10_crosstalk_survival;
      m.Schedule.log10_decoherence_survival; m.Schedule.total_time;
    ]
  in
  if List.exists Float.is_nan fields then Error "a metric is NaN" else Ok ()

(* Every native gate appears in exactly one schedule step, unchanged. *)
let scheduled_once native schedule =
  let instrs = Circuit.instructions native in
  let seen = Array.make (Array.length instrs) 0 in
  let bad = ref None in
  List.iter
    (fun step ->
      List.iter
        (fun (a : Gate.application) ->
          if a.Gate.id < 0 || a.Gate.id >= Array.length instrs then
            bad :=
              Some (Printf.sprintf "scheduled gate id %d is not in the native circuit" a.Gate.id)
          else begin
            let orig = instrs.(a.Gate.id) in
            if not (Gate.equal orig.Gate.gate a.Gate.gate && orig.Gate.qubits = a.Gate.qubits) then
              bad :=
                Some (Printf.sprintf "scheduled gate %d differs from the native gate" a.Gate.id);
            seen.(a.Gate.id) <- seen.(a.Gate.id) + 1
          end)
        step.Schedule.gates)
    schedule.Schedule.steps;
  match !bad with
  | Some msg -> Error msg
  | None -> (
    match Array.find_index (fun c -> c <> 1) seen with
    | Some i -> Error (Printf.sprintf "native gate %d scheduled %d times" i seen.(i))
    | None -> Ok ())

(* The checks every compile passes: a legal schedule of exactly the routed,
   decomposed program with well-defined metrics. *)
let compile (ctx : Pass.Context.t) =
  let device = ctx.Pass.Context.device in
  let schedule = Pass.Context.schedule_exn ctx in
  let routed = Pass.Context.routed_exn ctx in
  let* () = Schedule.check schedule in
  let* () =
    if Mapping.verify (Device.graph device) routed.Mapping.circuit then Ok ()
    else Error "routed circuit has a two-qubit gate on an uncoupled pair"
  in
  let* () = scheduled_once (Pass.Context.native_exn ctx) schedule in
  no_nan (Pass.Context.metrics_exn ctx)

(* The simulator's ideal state against the boxed reference simulator run on
   the native circuit, amplitude by amplitude. *)
let ideal_matches ~native ~ideal =
  let reference = Statevector_ref.of_circuit native in
  let a = Statevector.amplitudes ideal and b = Statevector_ref.amplitudes reference in
  if Array.length a <> Array.length b then Error "ideal state has the wrong dimension"
  else begin
    let worst = ref 0.0 in
    Array.iteri (fun i x -> worst := Float.max !worst (Complex.norm (Complex.sub x b.(i)))) a;
    if !worst <= 1e-9 then Ok ()
    else Error (Printf.sprintf "ideal state differs from the reference by %.3g" !worst)
  end

let probability p =
  if Float.is_finite p && p >= 0.0 && p <= 1.0 then Ok ()
  else Error (Printf.sprintf "simulated success %g is outside [0, 1]" p)

(* A serve response line: well-formed JSON for the expected id; an ok
   response carries a tier and metrics.  Structured refusals (any error code
   but "internal") are deadline misses, not failures. *)
type served = {
  ok : bool;
  tier : string;
  latency_ms : float;  (** Daemon-reported. *)
  attempts : (string * float * string) list;  (** tier, ms, outcome *)
  depth : int;
  log10_success : float;
  crosstalk_error : float;
}

let json_float = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | Json.String s -> float_of_string_opt s (* non-finite floats travel as "%h" strings *)
  | _ -> None

let response ~id line =
  let* doc =
    try Ok (Json.parse line) with Json.Parse_error msg -> Error ("non-JSON response: " ^ msg)
  in
  let str k = match Json.member k doc with Some (Json.String s) -> Some s | _ -> None in
  let* () =
    if str "id" = Some id then Ok ()
    else
      Error
        (Printf.sprintf "response for %s carries id %s" id
           (Option.value ~default:"none" (str "id")))
  in
  match str "status" with
  | Some "ok" -> (
    let metric k =
      match Json.member "metrics" doc with
      | Some m -> Option.bind (Json.member k m) json_float
      | None -> None
    in
    let attempts =
      match Json.member "attempts" doc with
      | Some (Json.List l) ->
        List.filter_map
          (fun a ->
            match
              ( Json.member "tier" a,
                Option.bind (Json.member "ms" a) json_float,
                Json.member "outcome" a )
            with
            | Some (Json.String t), Some ms, Some (Json.String o) -> Some (t, ms, o)
            | _ -> None)
          l
      | _ -> []
    in
    match
      (str "tier", Option.bind (Json.member "latency_ms" doc) json_float, metric "depth",
       metric "log10_success", metric "crosstalk_error")
    with
    | Some tier, Some latency_ms, Some depth, Some log10_success, Some crosstalk_error
      when attempts <> [] && not (Float.is_nan log10_success || Float.is_nan crosstalk_error) ->
      Ok
        {
          ok = true; tier; latency_ms; attempts; depth = int_of_float depth; log10_success;
          crosstalk_error;
        }
    | _ -> Error "ok response without tier, latency, attempts or metrics")
  | Some "error" -> (
    match str "code" with
    | Some "internal" | None ->
      Error ("internal error: " ^ Option.value ~default:"" (str "message"))
    | Some _ ->
      Ok
        {
          ok = false; tier = "refused"; latency_ms = 0.0; attempts = []; depth = 0;
          log10_success = Float.neg_infinity; crosstalk_error = 1.0;
        })
  | _ -> Error "response without a status"
