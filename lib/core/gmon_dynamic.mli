(** GmonDynamic: ColorDynamic on tunable-coupler hardware — the extension the
    paper's conclusion proposes ("complementing Gmon architecture with
    ColorDynamic optimization would also be a natural extension", §VIII).

    The schedule is exactly ColorDynamic's — program-specific subgraph
    coloring, SMT frequency search, noise-aware serialization — but executes
    on a device whose couplers are deactivated for every non-interacting
    pair.  The two mitigation mechanisms then compose multiplicatively:
    residual coupler leakage (eta x g0) is further suppressed by the
    spectral separation the coloring guarantees, so the architecture
    tolerates far larger coupler imperfections than the tiling-scheduled
    Baseline G (Fig 12's decay flattens). *)

val run :
  ?crosstalk_distance:int ->
  ?max_colors:int option ->
  ?conflict_threshold:int ->
  ?residual_coupling:float ->
  Device.t -> Circuit.t -> Schedule.t * Color_dynamic.stats
(** Same parameters as {!Color_dynamic.run} plus the coupler leakage
    [residual_coupling] (default 0). *)

val scheduler : Pass.scheduler
(** This algorithm as a registry entry (name ["gmon-dynamic"], aliases
    ["gmondynamic"]/["gd"]); same options as ColorDynamic plus
    [residual_coupling], reporting {!Color_dynamic.pass_stats}.  Registered
    by {!Compile}. *)
