(* The four workloads, each as an untraced run (end-to-end metrics) and a
   traced run (per-layer metrics).

   A compile is one [Pass.execute ~algorithm] on a device and circuit built
   beforehand, preceded by {!cold_start}: a one-shot `fastsc compile`
   process pays cold caches every time.  The serve daemon keeps its caches
   warm across the stream, and nothing resets them while it runs. *)

type metric = { name : string; value : float; unit_ : string }

type result = { attempted : int; failed : int; metrics : metric list; notes : string list }

let now = Deadline.now_s

(* referencing Compile runs its registrations of the built-in schedulers *)
let () = ignore Compile.all_algorithms

let m name unit_ value = { name; value; unit_ }

let median = Stats.median

let share num den = if den > 0.0 then num /. den else 0.0

(* VmHWM of a process, in MB (the kernel's peak resident set). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Set-up repeated at least five times and for at least 0.5 s (at most 1000
   times), each from a collected heap: the median time and the last result. *)
let timed_setup f =
  let t_start = now () in
  let rec go k acc =
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    let acc = (now () -. t0) :: acc in
    if k >= 1000 || (k >= 5 && now () -. t_start >= 0.5) then (median acc, v) else go (k + 1) acc
  in
  go 1 []

(* Whole passes over the inputs until [seconds] have elapsed (at least one). *)
let repeat_for ~seconds pass =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc else go (pass () :: acc)
  in
  go []

(* -- one operation's outcome and the end-to-end metrics over them ----------- *)

type op = {
  key : string;  (** Program identity, for per-program medians. *)
  op_s : float;  (** Caller-observed time of the whole operation. *)
  compile_s : float;  (** The compile inside it. *)
  quality : (int * float * float) option;  (** depth, log10 success, log10 crosstalk survival *)
  met : bool;  (** Answered within its budget (operations without one always are). *)
  full : bool;  (** Answered by a full compile. *)
}

let per_program_medians ops field =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun o ->
      if not (Hashtbl.mem table o.key) then order := o.key :: !order;
      Hashtbl.add table o.key (field o))
    ops;
  List.rev_map (fun k -> median (Hashtbl.find_all table k)) !order

let end_to_end ~setup_s ~rss_mb ops =
  let n = float_of_int (List.length ops) in
  let count p = float_of_int (List.length (List.filter p ops)) in
  let compile = per_program_medians ops (fun o -> o.compile_s) in
  let latencies_ms = List.map (fun o -> o.op_s *. 1000.0) ops in
  let qualities = List.filter_map (fun o -> o.quality) ops in
  let xtalk =
    List.filter_map
      (fun (_, _, x) -> if Float.is_finite x then Some (-.x) else None)
      qualities
  in
  [
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" rss_mb;
    m "compile_s_geomean" "s" (Stats.geomean compile);
    m "compile_s_max" "s" (List.fold_left Float.max 0.0 compile);
    m "op_s_geomean" "s" (Stats.geomean (per_program_medians ops (fun o -> o.op_s)));
    m "request_ms_p50" "ms" (Stats.percentile 50.0 latencies_ms);
    m "request_ms_p95" "ms" (Stats.percentile 95.0 latencies_ms);
    m "depth_geomean" "steps"
      (Stats.geomean (List.map (fun (d, _, _) -> float_of_int d) qualities));
    m "neg_log10_xtalk_mean" "decades" (Stats.mean xtalk);
    m "finite_success_share" "ratio"
      (share
         (float_of_int (List.length (List.filter (fun (_, s, _) -> Float.is_finite s) qualities)))
         (float_of_int (List.length qualities)));
    m "deadline_met_share" "ratio" (share (count (fun o -> o.met)) n);
    m "full_tier_share" "ratio" (share (count (fun o -> o.full)) n);
  ]

(* -- failure accounting ---------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let record t label = function
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    if List.length t.notes < 20 then t.notes <- Printf.sprintf "%s: %s" label msg :: t.notes

let attempt t = t.attempted <- t.attempted + 1

let finish t metrics =
  { attempted = t.attempted; failed = t.failed; metrics; notes = List.rev t.notes }

(* -- per-layer counters read from the public stats functions --------------- *)

type counters = {
  smt : int;
  solver_hits : int;
  solver_misses : int;
  pair_hits : int;
  pair_misses : int;
}

let counters () =
  let s = Freq_alloc.solver_cache_stats () and p = Crosstalk.pair_cache_stats () in
  {
    smt = Fastsc_smt.Smt.find_max_delta_count ();
    solver_hits = s.Freq_alloc.hits;
    solver_misses = s.Freq_alloc.misses;
    pair_hits = p.Crosstalk.hits;
    pair_misses = p.Crosstalk.misses;
  }

(* Accumulates named per-layer quantities over a traced run. *)
type layer = (string, float) Hashtbl.t

let layer () : layer = Hashtbl.create 32

let add l name v =
  Hashtbl.replace l name (v +. Option.value ~default:0.0 (Hashtbl.find_opt l name))

let get l name = Option.value ~default:0.0 (Hashtbl.find_opt l name)

(* Call [f] inside a span, adding the calling domain's minor-heap words and
   the cache and solver counter deltas to [l] under [name]. *)
let traced l rec_ ?req name f =
  let w0 = Gc.minor_words () and c0 = counters () in
  let v = Spans.with_span rec_ ?req name f in
  let c1 = counters () in
  add l (name ^ ".words") (Gc.minor_words () -. w0);
  add l "smt.solves" (float_of_int (c1.smt - c0.smt));
  add l "solver.hits" (float_of_int (c1.solver_hits - c0.solver_hits));
  add l "solver.misses" (float_of_int (c1.solver_misses - c0.solver_misses));
  add l "pair.hits" (float_of_int (c1.pair_hits - c0.pair_hits));
  add l "pair.misses" (float_of_int (c1.pair_misses - c0.pair_misses));
  v

(* What a one-shot `fastsc compile` or `fastsc validate` process starts
   from: cold memo caches, and a heap without the previous operation's
   garbage (whose collection would otherwise land in the next timing). *)
let cold_start () =
  Freq_alloc.reset_solver_cache ();
  Crosstalk.reset_pair_cache ();
  Gc.full_major ()

(* The per-layer metrics every workload prints; layers a workload does not
   run report 0. *)
let per_layer ~l ~spans ~parent_ms ~traced_s ~untraced_s =
  let by_name = Spans.self_by_name spans in
  let self name = Option.value ~default:0.0 (List.assoc_opt name by_name) in
  let sum_self = List.fold_left (fun acc name -> acc +. self name) 0.0 in
  let all_passes = [ "place"; "route"; "decompose"; "optimize"; "schedule"; "evaluate" ] in
  let compile_total = self "compile" +. sum_self all_passes in
  let ratio h mi = share h (h +. mi) in
  let noisy = sum_self [ "noisy_sim.lower"; "noisy_sim.ideal"; "noisy_sim.trajectories" ] in
  let mw name = get l (name ^ ".words") /. 1e6 in
  let traj_ms = self "noisy_sim.trajectories" in
  [
    m "place.self_ms" "ms" (self "place");
    m "place.share" "ratio" (share (self "place") parent_ms);
    m "place.alloc_mw" "Mword" (mw "place");
    m "place.swaps" "count" (get l "place.swaps");
    m "route.self_ms" "ms" (self "route");
    m "decompose.self_ms" "ms" (self "decompose");
    m "decompose.native_gates" "count" (get l "decompose.native_gates");
    m "optimize.self_ms" "ms" (self "optimize");
    m "schedule.self_ms" "ms" (self "schedule");
    m "schedule.share" "ratio" (share (self "schedule") parent_ms);
    m "schedule.alloc_mw" "Mword" (mw "schedule");
    m "smt.solves" "count" (get l "smt.solves");
    m "freq_alloc.hit_ratio" "ratio" (ratio (get l "solver.hits") (get l "solver.misses"));
    m "color_dynamic.components" "count" (get l "color_dynamic.components");
    m "evaluate.self_ms" "ms" (self "evaluate");
    m "evaluate.share" "ratio" (share (self "evaluate") parent_ms);
    m "evaluate.alloc_mw" "Mword" (mw "evaluate");
    m "crosstalk.pair_hit_ratio" "ratio" (ratio (get l "pair.hits") (get l "pair.misses"));
    m "compile.self_ms" "ms" (self "compile");
    m "compile.total_ms" "ms" compile_total;
    m "compile.share" "ratio" (share compile_total parent_ms);
    m "protocol.parse_ms" "ms" (self "protocol.parse");
    m "protocol.realize_ms" "ms" (self "protocol.realize");
    m "protocol.encode_ms" "ms" (self "protocol.encode");
    m "ladder.self_ms" "ms" (self "ladder");
    m "ladder.share" "ratio" (share (self "ladder") parent_ms);
    m "ladder.stale_hit_ratio" "ratio" (ratio (get l "stale.hits") (get l "stale.misses"));
    m "ladder.full_ms" "ms" (get l "ladder.full_ms");
    m "ladder.greedy_ms" "ms" (get l "ladder.greedy_ms");
    m "ladder.expired_per_request" "ratio" (get l "ladder.expired_per_request");
    m "ladder.overrun_ms_p95" "ms" (get l "ladder.overrun_ms_p95");
    m "noisy_sim.lower_ms" "ms" (self "noisy_sim.lower");
    m "noisy_sim.ideal_ms" "ms" (self "noisy_sim.ideal");
    m "noisy_sim.trajectories_ms" "ms" traj_ms;
    m "noisy_sim.trajectories_per_s" "1/s" (share (get l "trajectories") (traj_ms /. 1000.0));
    m "noisy_sim.share" "ratio" (share noisy parent_ms);
    m "noisy_sim.alloc_mw" "Mword"
      (mw "noisy_sim.lower" +. mw "noisy_sim.ideal" +. mw "noisy_sim.trajectories");
    m "trace.overhead_share" "ratio" (Spans.overhead_share ~traced_s ~untraced_s);
  ]

(* -- compile workloads (qaoa-frontend, nisq-mix) ---------------------------- *)

type built = { program : Inputs.program; device : Device.t; circuit : Circuit.t }

let build programs =
  List.map
    (fun (p : Inputs.program) ->
      let device, circuit = Inputs.realize p in
      { program = p; device; circuit })
    programs

let quality_of (mt : Schedule.metrics) =
  Some (mt.Schedule.depth, mt.Schedule.log10_success, mt.Schedule.log10_crosstalk_survival)

let check_compile t b ctx =
  attempt t;
  record t b.program.Inputs.label (Checks.compile ctx)

(* The median over untraced passes of a pass's summed operation time: one
   pass alone varies by a tenth from the next, which would swamp the
   tracing overhead. *)
let median_pass_s passes =
  median (List.map (List.fold_left (fun acc (_, op, _) -> acc +. op.op_s) 0.0) passes)

let compile_op b ~compile_s ctx =
  {
    key = b.program.Inputs.label;
    op_s = compile_s;
    compile_s;
    quality = quality_of (Pass.Context.metrics_exn ctx);
    met = true;
    full = true;
  }

let execute b = Pass.execute ~algorithm:b.program.Inputs.algorithm b.device b.circuit

let untraced_compile b =
  cold_start ();
  let t0 = now () in
  let ctx = execute b in
  (ctx, now () -. t0)

(* Step through [Pass.pipeline] under a parent compile span, one span per
   [pass.apply]. *)
let traced_compile l rec_ b =
  let req = b.program.Inputs.label in
  Spans.with_span rec_ ~req "compile" (fun () ->
      List.fold_left
        (fun ctx (pass : Pass.pass) ->
          traced l rec_ ~req pass.Pass.pass_name (fun () -> pass.Pass.apply ctx))
        (Pass.Context.create b.device b.circuit)
        (Pass.pipeline ~algorithm:b.program.Inputs.algorithm ()))

let compile_layer_counts l (ctx : Pass.Context.t) =
  add l "place.swaps" (float_of_int (Pass.Context.routed_exn ctx).Mapping.n_swaps);
  add l "decompose.native_gates" (float_of_int (Circuit.length (Pass.Context.native_exn ctx)));
  if ctx.Pass.Context.algorithm = Some "color-dynamic" then
    add l "color_dynamic.components" (float_of_int (Pass.Context.stat_int ctx "components"))

(* The passes must account for the compile span: what lies outside them is
   bookkeeping, so more than 5% (or 1 ms) outside means a span is missing. *)
let passes_cover spans =
  let self = Spans.self_times spans in
  List.fold_left
    (fun acc (s, self_ms) ->
      if s.Spans.name <> "compile" then acc
      else
        let d = Spans.duration_ms s in
        if self_ms <= Float.max 1.0 (0.05 *. d) then acc
        else
          Error
            (Printf.sprintf "passes cover only %.1f of %.1f ms of compile %s" (d -. self_ms) d
               s.Spans.req))
    (Ok ()) self

let compile_workload ~programs ~seconds ~trace ~trace_path =
  Pool.set_default_jobs 1;
  let setup_s, built = timed_setup (fun () -> build programs) in
  let t = tally () in
  (* a pass keeps only each compile's op record and metrics, so peak RSS is
     the compiler's, not the benchmark's *)
  let pass () =
    List.map
      (fun b ->
        let ctx, dt = untraced_compile b in
        check_compile t b ctx;
        (b, compile_op b ~compile_s:dt ctx, Pass.Context.metrics_exn ctx))
      built
  in
  if not trace then begin
    let ops = List.concat_map (List.map (fun (_, op, _) -> op)) (repeat_for ~seconds pass) in
    finish t (end_to_end ~setup_s ~rss_mb:(peak_rss_mb "self") ops)
  end
  else begin
    let passes = repeat_for ~seconds:(seconds /. 2.0) pass in
    let untraced = List.hd (List.rev passes) in
    let l = layer () and rec_ = Spans.create () in
    List.iter
      (fun (b, _, metrics) ->
        cold_start ();
        let traced_ctx = traced_compile l rec_ b in
        check_compile t b traced_ctx;
        compile_layer_counts l traced_ctx;
        attempt t;
        record t b.program.Inputs.label
          (if Pass.Context.metrics_exn traced_ctx = metrics then Ok ()
           else Error "traced and untraced compiles disagree"))
      untraced;
    let spans = Spans.spans rec_ in
    attempt t;
    record t "trace" (passes_cover spans);
    Spans.write_chrome ~path:trace_path spans;
    let traced_s = Spans.root_ms spans /. 1000.0 in
    let untraced_s = median_pass_s passes in
    finish t (per_layer ~l ~spans ~parent_ms:(Spans.root_ms spans) ~traced_s ~untraced_s)
  end

(* -- validate -------------------------------------------------------------- *)

let trials = 300

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

(* One `fastsc validate`: compile, lower, ideal state, trajectories. *)
let validate_once ?(sp = untimed) ?(compile = execute) ~seed b =
  let n_qubits = Device.n_qubits b.device in
  let t0 = now () in
  let ctx = compile b in
  let compile_s = now () -. t0 in
  let schedule = Pass.Context.schedule_exn ctx in
  let steps = sp.span "noisy_sim.lower" (fun () -> Schedule.to_noisy_steps schedule) in
  let ideal = sp.span "noisy_sim.ideal" (fun () -> Noisy_sim.ideal_of_steps ~n_qubits steps) in
  let simulated =
    sp.span "noisy_sim.trajectories" (fun () ->
        Noisy_sim.average_fidelity
          (Rng.create (Inputs.trajectory_seed seed b.program))
          ~n_qubits ~ideal ~steps
          ~trials)
  in
  (ctx, ideal, simulated, compile_s, now () -. t0)

let validate_checks t b (ctx, _, simulated, _, _) =
  attempt t;
  record t b.program.Inputs.label
    (Result.bind (Checks.compile ctx) (fun () -> Checks.probability simulated))

(* The compile step is a few milliseconds inside a half-second validate, so
   one sample per validate would leave the compile metrics to a single
   scheduling hiccup: each validate of the untraced run also times this many
   more cold compiles of its program (outside its validate time) and
   reports the median. *)
let extra_compiles = 8

let validate_workload ~programs ~seed ~seconds ~trace ~trace_path =
  let setup_s, built = timed_setup (fun () -> build programs) in
  let t = tally () in
  (* once per program, untimed and on one domain: the simulator's ideal
     state against the boxed reference simulator, and a few trajectories.
     The library's seeded-fault flags are module-level [lazy] values; two
     pool domains forcing one for the first time at once raise
     [Lazy.Undefined], so every one on this path is forced here first. *)
  Pool.set_default_jobs 1;
  List.iter
    (fun b ->
      let n_qubits = Device.n_qubits b.device in
      let ctx = execute b in
      let steps = Schedule.to_noisy_steps (Pass.Context.schedule_exn ctx) in
      let ideal = Noisy_sim.ideal_of_steps ~n_qubits steps in
      ignore (Noisy_sim.average_fidelity (Rng.create 1) ~n_qubits ~ideal ~steps ~trials:2);
      attempt t;
      record t b.program.Inputs.label
        (Checks.ideal_matches ~native:(Pass.Context.native_exn ctx) ~ideal))
    built;
  Pool.set_default_jobs 2;
  let pass () =
    List.map
      (fun b ->
        cold_start ();
        let ((ctx, _, simulated, compile_s, op_s) as r) = validate_once ~seed b in
        validate_checks t b r;
        let compile_s =
          median (compile_s :: List.init extra_compiles (fun _ -> snd (untraced_compile b)))
        in
        (b, { (compile_op b ~compile_s ctx) with op_s }, (Pass.Context.metrics_exn ctx, simulated)))
      built
  in
  if not trace then begin
    let ops = List.concat_map (List.map (fun (_, op, _) -> op)) (repeat_for ~seconds pass) in
    finish t (end_to_end ~setup_s ~rss_mb:(peak_rss_mb "self") ops)
  end
  else begin
    let passes = repeat_for ~seconds:(seconds /. 2.0) pass in
    let untraced = List.hd (List.rev passes) in
    let l = layer () and rec_ = Spans.create () in
    List.iter
      (fun (b, _, (metrics, simulated)) ->
        let req = b.program.Inputs.label in
        cold_start ();
        let ((tctx, _, tsim, _, _) as r) =
          Spans.with_span rec_ ~req "validate" (fun () ->
              validate_once
                ~sp:{ span = (fun name f -> traced l rec_ ~req name f) }
                ~compile:(traced_compile l rec_) ~seed b)
        in
        validate_checks t b r;
        add l "trajectories" (float_of_int trials);
        compile_layer_counts l tctx;
        attempt t;
        record t req
          (if Pass.Context.metrics_exn tctx = metrics && tsim = simulated then Ok ()
           else Error "traced and untraced validates disagree"))
      untraced;
    let spans = Spans.spans rec_ in
    attempt t;
    record t "trace" (passes_cover spans);
    Spans.write_chrome ~path:trace_path spans;
    let untraced_s = median_pass_s passes in
    finish t
      (per_layer ~l ~spans ~parent_ms:(Spans.root_ms spans)
         ~traced_s:(Spans.root_ms spans /. 1000.0) ~untraced_s)
  end

(* -- serve-deadline -------------------------------------------------------- *)

(* Line reader over a pipe with a per-line timeout, so a wedged daemon fails
   the run instead of hanging it. *)
type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let read_line r ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear r.buf;
      Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None ->
      let left = deadline -. now () in
      if left <= 0.0 then None
      else begin
        match Unix.select [ r.fd ] [] [] left with
        | [], _, _ -> None
        | _ -> (
          match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
          | 0 -> None
          | k ->
            Buffer.add_subbytes r.buf r.chunk 0 k;
            go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
  in
  go ()

type daemon = { pid : int; stdin_ : Unix.file_descr; out : reader; err : reader }

let spawn_daemon ~fastsc =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  (* one domain: the daemon's first request would otherwise race two pool
     domains on the library's lazy seeded-fault flags (see validate) *)
  let env = Array.append [| "FASTSC_JOBS=1" |] (Unix.environment ()) in
  let pid = Unix.create_process_env fastsc [| fastsc; "serve" |] env in_r out_w err_w in
  List.iter Unix.close [ in_r; out_w; err_w ];
  { pid; stdin_ = in_w; out = reader out_r; err = reader err_r }

let rec wait_ready d =
  match read_line d.err ~timeout_s:60.0 with
  | None -> false
  | Some line ->
    let ready = "fastsc serve: ready" in
    if String.length line >= String.length ready && String.sub line 0 (String.length ready) = ready
    then true
    else wait_ready d

(* Close stdin (the daemon drains and exits), collect what it still writes,
   and reap it. *)
let stop_daemon d =
  (try Unix.close d.stdin_ with Unix.Unix_error _ -> ());
  let rec drain r = match read_line r ~timeout_s:30.0 with Some _ -> drain r | None -> () in
  drain d.out;
  drain d.err;
  (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ ->
    Unix.kill d.pid Sys.sigkill;
    ignore (Unix.waitpid [] d.pid)
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ d.out.fd; d.err.fd ]

let send d line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring d.stdin_ s 0 (String.length s))

(* Spawn the daemon [times] times, timing spawn to its ready line; the
   last one serves the stream, the others are stopped at once. *)
let boot_daemons ~fastsc ~times =
  let rec go k acc =
    let t0 = now () in
    let d = spawn_daemon ~fastsc in
    if not (wait_ready d) then begin
      stop_daemon d;
      failwith "fastsc serve did not print its ready line"
    end;
    let acc = (now () -. t0) :: acc in
    if k = 1 then (median acc, d)
    else begin
      stop_daemon d;
      go (k - 1) acc
    end
  in
  go times []

(* The stream length is fixed by [--seconds] alone (a block takes four to
   eight seconds today), never by how fast the machine is, so every run of a
   workload sees the same number of requests of each class. *)
let blocks_for seconds = max 1 (int_of_float (seconds /. 5.0))

(* One stream outcome: the request, its client-observed latency and the
   checked response. *)
type exchange = { sr : Inputs.serve_request; latency_s : float; served : Checks.served option }

(* A program of the stream is a request class: the seed changes per block,
   the class is what the mix fixes. *)
let serve_key (r : Protocol.request) =
  Printf.sprintf "%s-%d-%s" r.Protocol.bench r.Protocol.n
    (match r.Protocol.deadline_ms with Some d -> Printf.sprintf "%g" d | None -> "-")

(* log10 of the crosstalk survival the response implies (the wire format
   carries the error, not its log). *)
let log10_survival err = Float.log1p (-.err) /. Float.log 10.0

let met_budget e =
  match (e.sr.Inputs.request.Protocol.deadline_ms, e.served) with
  | None, Some s -> s.Checks.ok
  | Some d, Some s -> s.Checks.ok && e.latency_s *. 1000.0 <= d
  | _, None -> false

let serve_op e =
  match e.served with
  | Some s when s.Checks.ok ->
    {
      key = serve_key e.sr.Inputs.request;
      op_s = e.latency_s;
      compile_s = s.Checks.latency_ms /. 1000.0;
      quality =
        Some (s.Checks.depth, s.Checks.log10_success, log10_survival s.Checks.crosstalk_error);
      met = met_budget e;
      full = s.Checks.tier = "full";
    }
  | _ ->
    {
      key = serve_key e.sr.Inputs.request;
      op_s = e.latency_s;
      compile_s = e.latency_s;
      quality = None;
      met = false;
      full = false;
    }

(* Closed loop, one request in flight: send a line, wait for its response. *)
let serve_stream_run t d stream =
  List.map
    (fun (sr : Inputs.serve_request) ->
      let id = sr.Inputs.request.Protocol.id in
      let s0 = now () in
      let line =
        match send d sr.Inputs.line with
        | () -> read_line d.out ~timeout_s:120.0
        | exception Unix.Unix_error _ -> None
      in
      let latency_s = now () -. s0 in
      attempt t;
      let served =
        match line with None -> Error "no response line" | Some line -> Checks.response ~id line
      in
      record t id (Result.map (fun _ -> ()) served);
      { sr; latency_s; served = Result.to_option served })
    stream

let attempts_ms exchanges tier =
  List.fold_left
    (fun acc e ->
      match e.served with
      | Some s ->
        List.fold_left
          (fun acc (t, ms, _) -> if t = tier then acc +. ms else acc)
          acc s.Checks.attempts
      | None -> acc)
    0.0 exchanges

(* Replay the same requests in-process, one in flight, as the daemon would
   serve them from a cold boot: parse, realize, walk the ladder, encode. *)
let serve_traced t l rec_ exchanges =
  cold_start ();
  Ladder.reset_stale_cache ();
  List.iter
    (fun e ->
      let sr = e.sr in
      let id = sr.Inputs.request.Protocol.id in
      attempt t;
      let outcome =
        Spans.with_span rec_ ~req:id "request" (fun () ->
            try
              let req =
                traced l rec_ ~req:id "protocol.parse" (fun () ->
                    Protocol.parse_request sr.Inputs.line)
              in
              ignore (traced l rec_ ~req:id "protocol.realize" (fun () -> Protocol.realize req));
              let h0, m0, _ = Ladder.stale_cache_stats () in
              let resp = traced l rec_ ~req:id "ladder" (fun () -> Ladder.compile req) in
              let h1, m1, _ = Ladder.stale_cache_stats () in
              add l "stale.hits" (float_of_int (h1 - h0));
              add l "stale.misses" (float_of_int (m1 - m0));
              let line =
                traced l rec_ ~req:id "protocol.encode" (fun () -> Protocol.response_line resp)
              in
              Checks.response ~id line
            with exn -> Error ("internal: " ^ Printexc.to_string exn))
      in
      record t id
        (match (outcome, e.served) with
        | Error msg, _ -> Error msg
        | Ok a, Some b when a.Checks.tier = "full" && b.Checks.tier = "full" ->
          if (a.Checks.depth, a.Checks.log10_success, a.Checks.crosstalk_error)
             = (b.Checks.depth, b.Checks.log10_success, b.Checks.crosstalk_error)
          then Ok ()
          else Error "traced and untraced full-tier responses disagree"
        | Ok _, _ -> Ok ()))
    exchanges

let serve_workload ~fastsc ~seed ~seconds ~trace ~trace_path =
  (* a daemon that dies shows as failed requests, not as a fatal SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Pool.set_default_jobs 1;
  let t = tally () in
  let blocks = blocks_for (if trace then seconds /. 2.0 else seconds) in
  let stream = Inputs.serve_stream seed ~blocks in
  let setup_s, d = boot_daemons ~fastsc ~times:15 in
  let exchanges, rss =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let exchanges = serve_stream_run t d stream in
        (exchanges, peak_rss_mb (string_of_int d.pid)))
  in
  if not trace then finish t (end_to_end ~setup_s ~rss_mb:rss (List.map serve_op exchanges))
  else begin
    let l = layer () and rec_ = Spans.create () in
    serve_traced t l rec_ exchanges;
    let spans = Spans.spans rec_ in
    Spans.write_chrome ~path:trace_path spans;
    let n = float_of_int (List.length exchanges) in
    add l "ladder.full_ms" (attempts_ms exchanges "full");
    add l "ladder.greedy_ms" (attempts_ms exchanges "greedy");
    let expired =
      List.fold_left
        (fun acc e ->
          match e.served with
          | Some s ->
            acc + List.length (List.filter (fun (_, _, o) -> o = "expired") s.Checks.attempts)
          | None -> acc)
        0 exchanges
    in
    add l "ladder.expired_per_request" (share (float_of_int expired) n);
    let overruns =
      List.filter_map
        (fun e ->
          match e.sr.Inputs.request.Protocol.deadline_ms with
          | Some d when not (met_budget e) -> Some ((e.latency_s *. 1000.0) -. d)
          | _ -> None)
        exchanges
    in
    add l "ladder.overrun_ms_p95" (Stats.percentile 95.0 overruns);
    let untraced_s = List.fold_left (fun acc e -> acc +. e.latency_s) 0.0 exchanges in
    finish t
      (per_layer ~l ~spans ~parent_ms:(Spans.root_ms spans)
         ~traced_s:(Spans.root_ms spans /. 1000.0) ~untraced_s)
  end
