type algorithm =
  | Naive
  | Gmon
  | Uniform
  | Static
  | Color_dynamic
  | Gmon_dynamic
  | Anneal_dynamic
  | Murali_delay
  | Cqc_synergy

(* Register the built-in zoo.  Referencing each module's [scheduler] here
   both performs the registration and guarantees the scheduler translation
   units are linked into any program that touches Compile (module
   initializers only run for linked units). *)
let () =
  List.iter Pass.register
    [
      Baseline_naive.scheduler;
      Baseline_gmon.scheduler;
      Baseline_uniform.scheduler;
      Baseline_static.scheduler;
      Color_dynamic.scheduler;
      Gmon_dynamic.scheduler;
      Anneal_dynamic.scheduler;
      Murali_delay.scheduler;
      Cqc_synergy.scheduler;
      Greedy_spread.scheduler;
    ]

(* The only per-algorithm table left: the closed public variant against the
   registry's canonical names.  Dispatch, parsing, and the algorithm lists
   all go through the registry. *)
let names =
  [
    (Naive, "baseline-n");
    (Gmon, "baseline-g");
    (Uniform, "baseline-u");
    (Static, "baseline-s");
    (Color_dynamic, "color-dynamic");
    (Gmon_dynamic, "gmon-dynamic");
    (Anneal_dynamic, "anneal-dynamic");
    (Murali_delay, "murali-delay");
    (Cqc_synergy, "cqc-synergy");
  ]

let algorithm_to_string algorithm = List.assoc algorithm names

let algorithm_of_name name =
  List.find_map (fun (a, n) -> if String.equal n name then Some a else None) names

let registered_algorithms ~all =
  List.filter_map
    (fun (module S : Pass.SCHEDULER) ->
      if all || S.table1 then algorithm_of_name S.name else None)
    (Pass.schedulers ())

let all_algorithms = registered_algorithms ~all:false

let extended_algorithms = registered_algorithms ~all:true

let algorithm_of_string spec =
  match Pass.find_scheduler spec with
  | Some (module S : Pass.SCHEDULER) -> algorithm_of_name S.name
  | None -> None

type options = Pass.options = {
  decomposition : Decompose.strategy;
  crosstalk_distance : int;
  max_colors : int option;
  conflict_threshold : int;
  residual_coupling : float;
  placement : [ `Identity | `Degree | `Coherence | `Auto ];
  optimize : bool;
  router : string;
  delay_threshold : float;
}

let default_options = Pass.default_options

let prepare options device circuit =
  Pass.Context.native_exn
    (Pass.run_pipeline Pass.prepare_passes (Pass.Context.create ~options device circuit))

let schedule_native options algorithm device native =
  let (module S : Pass.SCHEDULER) = Pass.scheduler_exn (algorithm_to_string algorithm) in
  fst (S.schedule options device native)

let run ?(options = default_options) algorithm device circuit =
  Pass.Context.schedule_exn
    (Pass.execute ~options ~through:`Schedule ~algorithm:(algorithm_to_string algorithm)
       device circuit)
