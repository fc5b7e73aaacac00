open Helpers
open Fastsc_device
open Fastsc_core
open Fastsc_benchmarks

let device ?(seed = 21) ?(n = 3) () = Device.create ~seed (Topology.grid n n)

let bv9 () = Bv.circuit ~n:9 ()

let parallel_heavy () =
  (* XEB-like: dense simultaneous two-qubit gates on the 3x3 grid *)
  let rng = Rng.create 42 in
  let topo = Topology.grid 3 3 in
  let classes = Topology.grid_edge_classes 3 3 in
  let classes =
    List.map
      (fun (e, c) ->
        (e, match c with Topology.A -> 0 | Topology.B -> 1 | Topology.C -> 2 | Topology.D -> 3))
      classes
  in
  Xeb.circuit rng ~graph:topo.Topology.graph ~classes ~cycles:4 ()

let all_run_and_check name circuit =
  let d = device () in
  List.iter
    (fun algorithm ->
      let s = Compile.run algorithm d circuit in
      (match Schedule.check s with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s/%s: %s" name (Compile.algorithm_to_string algorithm) msg);
      let m = Schedule.evaluate s in
      if not (m.Schedule.success >= 0.0 && m.Schedule.success <= 1.0) then
        Alcotest.failf "%s/%s: bad success %f" name
          (Compile.algorithm_to_string algorithm)
          m.Schedule.success)
    Compile.all_algorithms

let test_all_algorithms_valid_bv () = all_run_and_check "bv" (bv9 ())

let test_all_algorithms_valid_xeb () = all_run_and_check "xeb" (parallel_heavy ())

let test_gate_counts_preserved () =
  let d = device () in
  let circuit = bv9 () in
  let native = Compile.prepare Compile.default_options d circuit in
  List.iter
    (fun algorithm ->
      let s = Compile.schedule_native Compile.default_options algorithm d native in
      check_int
        (Compile.algorithm_to_string algorithm ^ " keeps every gate")
        (Circuit.length native) (Schedule.n_gates s))
    Compile.all_algorithms

let test_uniform_serializes_conflicts () =
  let d = device () in
  let s = Compile.run Compile.Uniform d (parallel_heavy ()) in
  (* single interaction frequency: no two crosstalk-adjacent two-qubit gates
     may share a step *)
  let xg = Crosstalk_graph.build (Device.graph d) in
  List.iter
    (fun step ->
      let vertices =
        List.filter_map
          (fun app ->
            match app.Gate.qubits with
            | [| a; b |] -> Some (Crosstalk_graph.vertex_of_pair xg (a, b))
            | _ -> None)
          step.Schedule.gates
      in
      List.iter
        (fun v -> check_int "no conflicts" 0 (Crosstalk_graph.conflict_count xg v vertices))
        vertices)
    s.Schedule.steps

let test_colordynamic_beats_naive_on_crosstalk () =
  let d = device () in
  let circuit = parallel_heavy () in
  let naive = Schedule.evaluate (Compile.run Compile.Naive d circuit) in
  let cd = Schedule.evaluate (Compile.run Compile.Color_dynamic d circuit) in
  check_true "less crosstalk error"
    (cd.Schedule.crosstalk_error < naive.Schedule.crosstalk_error);
  check_true "better success" (cd.Schedule.success > naive.Schedule.success)

let test_colordynamic_shallower_than_uniform () =
  let d = device () in
  let circuit = parallel_heavy () in
  let u = Compile.run Compile.Uniform d circuit in
  let cd = Compile.run Compile.Color_dynamic d circuit in
  check_true "less serialization" (Schedule.depth cd <= Schedule.depth u)

let test_gmon_perfect_couplers_no_crosstalk () =
  let d = device () in
  let s = Compile.run Compile.Gmon d (parallel_heavy ()) in
  let m = Schedule.evaluate s in
  (* distance-1 crosstalk is zero with eta = 0 (only parasitic distance-2
     remains, excluded at the default distance 1) *)
  check_float ~eps:1e-12 "no crosstalk" 0.0 m.Schedule.crosstalk_error

let test_gmon_residual_degrades () =
  let d = device () in
  let circuit = parallel_heavy () in
  let success eta =
    let options = { Compile.default_options with Compile.residual_coupling = eta } in
    (Schedule.evaluate (Compile.run ~options Compile.Gmon d circuit)).Schedule.success
  in
  let s0 = success 0.0 and s1 = success 0.05 and s2 = success 0.2 in
  check_true "monotone decay" (s0 > s1 && s1 > s2)

let test_gmon_steps_single_class () =
  let d = device () in
  let s = Compile.run Compile.Gmon d (parallel_heavy ()) in
  let classes = Baseline_gmon.edge_classes d in
  List.iter
    (fun step ->
      let step_classes =
        List.filter_map
          (fun app ->
            match app.Gate.qubits with
            | [| a; b |] -> List.assoc_opt (min a b, max a b) classes
            | _ -> None)
          step.Schedule.gates
      in
      check_true "at most one coupler class per step"
        (List.length (List.sort_uniq compare step_classes) <= 1))
    s.Schedule.steps

let test_color_cap_respected () =
  let d = device () in
  let circuit = parallel_heavy () in
  let options = { Compile.default_options with Compile.max_colors = Some 1 } in
  let native = Compile.prepare options d circuit in
  let _, stats =
    Color_dynamic.run ~max_colors:(Some 1) d native
  in
  check_true "cap respected" (stats.Color_dynamic.max_colors_used <= 1)

let test_color_cap_increases_depth () =
  let d = device () in
  let circuit = parallel_heavy () in
  let run cap =
    let options = { Compile.default_options with Compile.max_colors = cap } in
    Schedule.depth (Compile.run ~options Compile.Color_dynamic d circuit)
  in
  check_true "capping serializes" (run (Some 1) >= run None)

let test_colordynamic_stats () =
  let d = device () in
  let native = Compile.prepare Compile.default_options d (parallel_heavy ()) in
  let s, stats = Color_dynamic.run d native in
  check_int "cycles = depth" (Schedule.depth s) stats.Color_dynamic.cycles;
  check_true "colors used" (stats.Color_dynamic.max_colors_used >= 1);
  check_true "delta recorded" (stats.Color_dynamic.min_delta > 0.0)

let test_static_uses_fixed_table () =
  let d = device () in
  let freq_of_pair, n_colors = Baseline_static.static_assignment d in
  check_true "mesh needs several colors" (n_colors >= 4);
  (* the same pair always maps to the same frequency *)
  let f1 = freq_of_pair (0, 1) and f2 = freq_of_pair (0, 1) in
  check_float "deterministic" f1 f2

let test_algorithm_string_roundtrip () =
  (* every registered algorithm, not just the Table I five *)
  List.iter
    (fun a ->
      match Compile.algorithm_of_string (Compile.algorithm_to_string a) with
      | Some a' -> check_true "roundtrip" (a = a')
      | None -> Alcotest.fail "parse failed")
    Compile.extended_algorithms;
  check_true "extended covers all" (List.length Compile.extended_algorithms = 9);
  check_true "unknown rejected" (Compile.algorithm_of_string "nonsense" = None)

let test_registry_names_and_aliases () =
  (* the registry agrees with the Compile wrapper: each canonical name
     resolves, and every alias resolves to the same scheduler *)
  List.iter
    (fun a ->
      let name = Compile.algorithm_to_string a in
      match Pass.find_scheduler name with
      | None -> Alcotest.failf "%s not in registry" name
      | Some (module S : Pass.SCHEDULER) ->
        check_true "canonical name matches" (String.equal S.name name);
        List.iter
          (fun alias ->
            match Pass.find_scheduler alias with
            | Some (module A : Pass.SCHEDULER) ->
              check_true (alias ^ " resolves to " ^ name) (String.equal A.name name)
            | None -> Alcotest.failf "alias %s of %s does not resolve" alias name)
          S.aliases)
    Compile.extended_algorithms;
  (* nine Compile-variant algorithms plus greedy-spread, which is
     registry-only (the serve ladder's deadline-free floor, reached by name) *)
  check_int "registry holds the ten built-ins" 10
    (List.length (Pass.scheduler_names ()));
  (match Pass.find_scheduler "greedy-spread" with
  | Some (module S : Pass.SCHEDULER) ->
    check_true "greedy resolves" (Pass.find_scheduler "greedy" <> None);
    check_true "greedy-spread has no Compile variant"
      (Compile.algorithm_of_string S.name = None)
  | None -> Alcotest.fail "greedy-spread not in registry")

let test_decomposition_strategies_compile () =
  let d = device () in
  let circuit = bv9 () in
  List.iter
    (fun decomposition ->
      let options = { Compile.default_options with Compile.decomposition } in
      let s = Compile.run ~options Compile.Color_dynamic d circuit in
      match Schedule.check s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" (Decompose.strategy_to_string decomposition) msg)
    [ Decompose.All_cz; Decompose.All_iswap; Decompose.Hybrid ]

let test_identity_placement_option () =
  let d = device () in
  let options = { Compile.default_options with Compile.placement = `Identity } in
  let s = Compile.run ~options Compile.Color_dynamic d (bv9 ()) in
  check_true "valid" (Result.is_ok (Schedule.check s))

let prop_all_algorithms_all_seeds =
  qcheck_case ~count:15 "every algorithm validates on random devices" QCheck.(int_range 1 1000)
    (fun seed ->
      let d = Device.create ~seed (Topology.grid 3 3) in
      let circuit = Bv.circuit ~n:6 () in
      List.for_all
        (fun algorithm -> Result.is_ok (Schedule.check (Compile.run algorithm d circuit)))
        Compile.all_algorithms)

let suite =
  [
    Alcotest.test_case "all algorithms valid on bv" `Quick test_all_algorithms_valid_bv;
    Alcotest.test_case "all algorithms valid on xeb" `Quick test_all_algorithms_valid_xeb;
    Alcotest.test_case "gate counts preserved" `Quick test_gate_counts_preserved;
    Alcotest.test_case "uniform serializes conflicts" `Quick test_uniform_serializes_conflicts;
    Alcotest.test_case "cd beats naive on crosstalk" `Quick test_colordynamic_beats_naive_on_crosstalk;
    Alcotest.test_case "cd shallower than uniform" `Quick test_colordynamic_shallower_than_uniform;
    Alcotest.test_case "gmon perfect couplers" `Quick test_gmon_perfect_couplers_no_crosstalk;
    Alcotest.test_case "gmon residual degrades" `Quick test_gmon_residual_degrades;
    Alcotest.test_case "gmon single class per step" `Quick test_gmon_steps_single_class;
    Alcotest.test_case "color cap respected" `Quick test_color_cap_respected;
    Alcotest.test_case "color cap increases depth" `Quick test_color_cap_increases_depth;
    Alcotest.test_case "colordynamic stats" `Quick test_colordynamic_stats;
    Alcotest.test_case "static fixed table" `Quick test_static_uses_fixed_table;
    Alcotest.test_case "algorithm string roundtrip" `Quick test_algorithm_string_roundtrip;
    Alcotest.test_case "registry names and aliases" `Quick test_registry_names_and_aliases;
    Alcotest.test_case "decomposition strategies" `Quick test_decomposition_strategies_compile;
    Alcotest.test_case "identity placement" `Quick test_identity_placement_option;
    prop_all_algorithms_all_seeds;
  ]
