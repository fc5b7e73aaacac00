(** ColorDynamic: program-specific frequency-aware compilation — the paper's
    main contribution (Algorithm 1, §V).

    Each scheduling cycle:
    + ready gates are considered in criticality order; a two-qubit gate is
      postponed when too many of its crosstalk-graph neighbours are already
      in the cycle ([noise_conflict], line 13) — the noise-aware queueing
      scheduler trading parallelism against frequency crowding;
    + the active subgraph of the crosstalk graph is colored (Welsh–Powell,
      line 19);
    + if a color cap is in force (the tunability sweep of Fig 11), gates of
      the smallest color classes are postponed until the cap holds;
    + the separation solver maps colors to interaction frequencies, busiest
      color highest, maximising the pairwise separation delta (line 20);
    + idle qubits park on their connectivity-coloring frequencies.

    The result is a schedule whose interaction frequencies are tailored to
    every time step of the program. *)

type stats = {
  cycles : int;  (** Scheduling cycles executed. *)
  max_colors_used : int;  (** Largest per-step color count. *)
  postponed : int;  (** Gate placements deferred by noise_conflict or the
                        color cap (a gate may be counted more than once). *)
  min_delta : float;  (** Smallest separation achieved across steps (infinity
                          when no two-qubit gates exist). *)
  components : int;  (** Total crosstalk components across all cycles. *)
  component_max_size : int;  (** Largest component seen (in couplings). *)
  component_sizes : string;  (** Histogram ["size:count ..."], sizes
                                 ascending, across all cycles. *)
  component_solves : int;  (** Frequency solves requested: one per cycle
                               with active two-qubit gates. *)
}

val run :
  ?crosstalk_distance:int ->
  ?max_colors:int option ->
  ?conflict_threshold:int ->
  ?colorer:(Graph.t -> Coloring.coloring) ->
  Device.t -> Circuit.t -> Schedule.t * stats
(** [run device circuit] compiles a routed, native-gate circuit.
    [crosstalk_distance] is the [d] of the crosstalk graph (default 1);
    [max_colors] caps per-step colors (default [None] = uncapped);
    [conflict_threshold] is the neighbour count that triggers postponement
    (default 4); [colorer] is the subgraph-coloring heuristic (default
    {!Coloring.welsh_powell}, per the paper; swappable for ablations).

    Each cycle's colors get their frequencies from one
    {!Freq_alloc.interaction} solve over the whole moment.  The connected
    components of the moment's active crosstalk subgraph are counted in
    {!stats} but not allocated separately.
    @raise Invalid_argument if [conflict_threshold < 1] or
    [max_colors < Some 1]. *)

val pass_stats : stats -> Pass.stat list
(** The generic pass-manager form of {!stats} ([cycles], [max_colors_used],
    [postponed], [components], [component_max_size], [component_solves] as
    [Int]; [min_delta] as [Float];
    [component_sizes] as [Text]) — what [Pass.Context.stats] carries after a
    ColorDynamic compilation.  Also reused by {!Gmon_dynamic}. *)

val scheduler : Pass.scheduler
(** This algorithm as a registry entry (name ["color-dynamic"], aliases
    ["colordynamic"]/["cd"]); reads [crosstalk_distance], [max_colors] and
    [conflict_threshold] from the pipeline options and reports
    {!pass_stats}.  Registered by {!Compile}. *)
