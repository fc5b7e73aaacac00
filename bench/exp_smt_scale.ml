(* SMT scaling benchmark: the compiler's separation search,
   [Smt.find_max_delta], on per-moment crosstalk constraint problems drawn
   from large meshes.

   Each "moment" activates a random subset of a topology's couplings (one
   variable per active coupling, bounds [0, 1]) and constrains every
   crosstalk-adjacent active pair by |x_i - x_j| >= delta — the coupling-level
   frequency-allocation problem a scheduling cycle induces.  Sparse
   activations split into many independent components, which the unordered
   [Smt.solve] behind every bisection probe solves one by one.  Two legs run
   on the identical problems:

   - cold: [Smt.find_max_delta] from scratch;
   - warm restart: the same search re-seeded with the cold witness
     ([find_max_delta ~warm], the compiler's consecutive-moment seed), which
     opens the bisection at the seed's margin instead of at delta = 0.

   Both witnesses are re-verified.  A final section replays each moment's
   components through [Freq_alloc.interaction] (color-level problems, sizes
   capped at the mesh color bound) and reports the solver memo-cache hit
   rate.

   Emits BENCH_smt_scale.json.  Env knobs (the `make bench-smt-scale` smoke
   run shrinks them):
     FASTSC_SMT_SIZES     comma-separated mesh sides (default "10,20,50")
     FASTSC_SMT_MOMENTS   moments per size (default 2)
     FASTSC_SMT_DENSITY   active-coupling percentage (default 6)
     FASTSC_SMT_TOPOLOGY  grid | path | ring | heavy-hex | octagonal | express
     FASTSC_SMT_SCRUB     when set, zero every wall-clock-derived field (and
                          the jobs stamp) so JSON from different job counts
                          can be compared byte-for-byte *)

let valid_topologies = [ "grid"; "path"; "ring"; "heavy-hex"; "octagonal"; "express" ]

(* Unknown names exit 2 listing the valid ones, mirroring --algorithm. *)
let topology_of name size =
  match name with
  | "grid" -> Topology.grid size size
  | "path" -> Topology.path (size * size)
  | "ring" -> Topology.ring (max 3 (size * size))
  | "heavy-hex" -> Topology.heavy_hex size size
  | "octagonal" -> Topology.octagonal size size
  | "express" -> Topology.express_2d size size 4
  | other ->
    Printf.eprintf "bench smt-scale: unknown topology %S (valid: %s)\n%!" other
      (String.concat " " valid_topologies);
    exit 2

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

let env_sizes () =
  match Sys.getenv_opt "FASTSC_SMT_SIZES" with
  | None -> [ 10; 20; 50 ]
  | Some spec ->
    let parse s =
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 2 -> v
      | _ ->
        Printf.eprintf "bench smt-scale: FASTSC_SMT_SIZES needs integers >= 2, got %S\n%!" s;
        exit 2
    in
    List.map parse (String.split_on_char ',' spec)

let scrubbed () = Sys.getenv_opt "FASTSC_SMT_SCRUB" <> None

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let tolerance = 1e-4

(* One moment: a seeded random activation of the couplings, lowered to a
   separation problem over the active vertices.  Returns the problem and
   its count of variables. *)
let moment_problem xg rng ~density =
  let cg = xg.Crosstalk_graph.graph in
  let active =
    List.filter (fun _ -> Rng.float rng < density) (Graph.vertices cg)
  in
  let n = List.length active in
  let local = Array.make (Graph.n_vertices cg) (-1) in
  List.iteri (fun i v -> local.(v) <- i) active;
  let t = Smt.create n in
  Graph.iter_edges
    (fun u v ->
      if local.(u) >= 0 && local.(v) >= 0 then Smt.add_separation t local.(u) local.(v))
    cg;
  (t, n)

type size_report = {
  size : int;
  qubits : int;
  couplings : int;
  articulation : int;
  moments : int;
  vars : int;
  components : int;
  component_max : int;
  cold_s : float;
  solves : int;
  delta_mean : float;
  verified : bool;
  warm_s : float;
  cache_solves : int;
  cache_hits : int;
  cache_hit_rate : float;
}

let run_size ~name ~moments ~density size =
  let topo = topology_of name size in
  let graph = topo.Topology.graph in
  let xg = Crosstalk_graph.build ~distance:1 graph in
  let couplings = Graph.n_vertices xg.Crosstalk_graph.graph in
  let articulation = List.length (Graph.articulation_points xg.Crosstalk_graph.graph) in
  let rng = Rng.create (2020 + size) in
  let measured = ref 0 in
  let vars = ref 0 in
  let components = ref 0 in
  let component_max = ref 0 in
  let comp_sizes = ref [] in
  let cold_s = ref 0.0 and solves = ref 0 and delta_sum = ref 0.0 in
  let verified = ref true in
  let warm_s = ref 0.0 in
  for _ = 1 to moments do
    let t, n = moment_problem xg rng ~density in
    if n > 0 then begin
      incr measured;
      vars := !vars + n;
      List.iter
        (fun comp ->
          let k = List.length comp in
          incr components;
          if k > !component_max then component_max := k;
          comp_sizes := k :: !comp_sizes)
        (Smt.component_partition t);
      let before = Smt.find_max_delta_count () in
      let cold, dt = time (fun () -> Smt.find_max_delta t) in
      cold_s := !cold_s +. dt;
      solves := !solves + (Smt.find_max_delta_count () - before);
      let d, w = Option.get cold in
      verified := !verified && Smt.verify t ~delta:d w;
      delta_sum := !delta_sum +. d;
      (* warm restart: the same search re-seeded with its own witness *)
      let warm, dtw = time (fun () -> Smt.find_max_delta ~warm:w t) in
      warm_s := !warm_s +. dtw;
      let dw, ww = Option.get warm in
      verified := !verified && Smt.verify t ~delta:dw ww;
      (* a warm result can trail or lead the cold one only within tolerance *)
      verified := !verified && Float.abs (dw -. d) <= 2.0 *. tolerance
    end
  done;
  (* cache section: each component as a color-level Freq_alloc problem *)
  Freq_alloc.reset_solver_cache ();
  let device = Device.create ~seed:Exp_common.device_seed topo in
  List.iter
    (fun k ->
      let c = min k Crosstalk_graph.max_colors_mesh in
      let multiplicity = Array.make c 0 in
      for i = 0 to k - 1 do
        multiplicity.(i mod c) <- multiplicity.(i mod c) + 1
      done;
      ignore (Freq_alloc.interaction device ~n_colors:c ~multiplicity))
    (List.rev !comp_sizes);
  let cache = Freq_alloc.solver_cache_stats () in
  let cache_solves = cache.Freq_alloc.hits + cache.Freq_alloc.misses in
  {
    size;
    qubits = Graph.n_vertices graph;
    couplings;
    articulation;
    moments = !measured;
    vars = !vars;
    components = !components;
    component_max = !component_max;
    cold_s = !cold_s;
    solves = !solves;
    delta_mean = !delta_sum /. float_of_int (max 1 !measured);
    verified = !verified;
    warm_s = !warm_s;
    cache_solves;
    cache_hits = cache.Freq_alloc.hits;
    cache_hit_rate =
      (if cache_solves = 0 then 0.0
       else float_of_int cache.Freq_alloc.hits /. float_of_int cache_solves);
  }

let run () =
  Exp_common.heading "SMT scaling: decomposed separation solving on mesh moments";
  let sizes = env_sizes () in
  let moments = env_int "FASTSC_SMT_MOMENTS" 2 in
  let density = float_of_int (env_int "FASTSC_SMT_DENSITY" 6) /. 100.0 in
  let name = Option.value ~default:"grid" (Sys.getenv_opt "FASTSC_SMT_TOPOLOGY") in
  if not (List.mem name valid_topologies) then ignore (topology_of name 2);
  let scrub = scrubbed () in
  let ms s = if scrub then 0.0 else s *. 1000.0 in
  let ratio num den = if scrub || den <= 0.0 then 0.0 else num /. den in
  let reports = List.map (fun size -> run_size ~name ~moments ~density size) sizes in

  let t = Tablefmt.create
      [ "size"; "vars"; "comps"; "max"; "artic"; "cold ms"; "warm ms"; "warm speedup";
        "cache hit rate" ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          Printf.sprintf "%dx%d" r.size r.size;
          Tablefmt.cell_int r.vars;
          Tablefmt.cell_int r.components;
          Tablefmt.cell_int r.component_max;
          Tablefmt.cell_int r.articulation;
          Tablefmt.cell_float ~digits:2 (ms r.cold_s);
          Tablefmt.cell_float ~digits:2 (ms r.warm_s);
          Printf.sprintf "%.1fx" (ratio r.cold_s r.warm_s);
          Printf.sprintf "%.2f" r.cache_hit_rate;
        ])
    reports;
  Tablefmt.print t;
  List.iter
    (fun r ->
      Printf.printf "%dx%d: %d moments, %d solves (mean delta %.4f), verified=%b\n" r.size
        r.size r.moments r.solves r.delta_mean r.verified)
    reports;

  let doc =
    Json.Obj
      [
        ("label", Json.String "smt-scale");
        ("topology", Json.String name);
        ("jobs", Json.Int (if scrub then 0 else Pool.default_jobs ()));
        ("moments", Json.Int moments);
        ("density", Json.Float density);
        ("tolerance", Json.Float tolerance);
        ( "sizes",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("size", Json.Int r.size);
                     ("qubits", Json.Int r.qubits);
                     ("couplings", Json.Int r.couplings);
                     ("articulation_points", Json.Int r.articulation);
                     ("moments_measured", Json.Int r.moments);
                     ("vars", Json.Int r.vars);
                     ("components", Json.Int r.components);
                     ("component_max", Json.Int r.component_max);
                     ( "decomposed",
                       Json.Obj
                         [
                           ("ms_jobs1", Json.Float (ms r.cold_s));
                           ("solves", Json.Int r.solves);
                           ("delta_mean", Json.Float r.delta_mean);
                         ] );
                     ("witnesses_verified", Json.Bool r.verified);
                     ( "warm",
                       Json.Obj
                         [
                           ("warm_ms", Json.Float (ms r.warm_s));
                           ("speedup_vs_cold", Json.Float (ratio r.cold_s r.warm_s));
                         ] );
                     ( "cache",
                       Json.Obj
                         [
                           ("solves", Json.Int r.cache_solves);
                           ("hits", Json.Int r.cache_hits);
                           ("hit_rate", Json.Float r.cache_hit_rate);
                         ] );
                   ])
               reports) );
      ]
  in
  let oc = open_out "BENCH_smt_scale.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote BENCH_smt_scale.json\n%!"
