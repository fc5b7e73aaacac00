(** Frequency assignment from colorings via the separation solver
    (paper §IV-C1, §V-B3).

    Two instances of the same constraint problem:
    - {e idle} (parking) frequencies: one variable per color of the device
      connectivity graph, placed in the parking region;
    - {e interaction} frequencies: one variable per color of the active
      crosstalk subgraph, placed in the interaction region, ordered so that
      busier colors receive higher frequencies (higher frequency means faster
      gates, §V-B3).

    In both cases every pair of variables must be separated by [delta] both
    directly (eq 2) and through the anharmonicity sidebands (eq 3), and
    [smt_find]'s binary search maximises [delta]. *)

type assignment = {
  freqs : float array;  (** [freqs.(color)] in GHz. *)
  delta : float;  (** The achieved pairwise separation. *)
}

type cache_stats = {
  hits : int;  (** Memo-table hits (cold, key-determined solves). *)
  misses : int;  (** Memo-table misses that paid a full binary search. *)
  entries : int;  (** Current table population (bounded by 2^16, recycled). *)
}

val solver_cache_stats : unit -> cache_stats
(** Counters of the memoized separation solver.  Every [find_max_delta]
    binary search is keyed by the canonical problem description (variable
    count, band, anharmonicity, placement order); repeat solves — e.g. the
    same color count appearing in many ColorDynamic cycles — are served from
    a mutex-protected table, so the counters are safe to read while pool
    domains compile.  The table is bounded at [2^16] entries with the same
    reset-on-full recycle discipline as [Crosstalk.pair_error]. *)

val reset_solver_cache : unit -> unit
(** Drop all memoized solves and zero the counters (tests; also useful when
    measuring cold-compile costs). *)

val export_cache : unit -> Json.t
(** The memo table as a JSON document (entries in sorted key order, so equal
    cache states serialize to equal bytes).  The serve daemon wraps this in
    a checksummed {!Fastsc_util.Snapshot} envelope to persist warm caches
    across restarts. *)

val import_cache : Json.t -> int
(** Merge a document produced by {!export_cache} into the memo table and
    return the number of entries imported.  Malformed entries are skipped
    (a snapshot from an older build costs only what it cannot express);
    counters are untouched.  Returns 0 on a document with no
    ["solver_cache"] list. *)

val idle : Device.t -> Coloring.coloring * assignment
(** Color the connectivity graph (2 colors when bipartite, Welsh–Powell
    otherwise) and solve for parking frequencies.
    @raise Failure if the solver finds no feasible assignment (cannot happen
    for sane partitions; kept as a loud invariant).  The message carries the
    full problem description — color count, band, sideband offset, placement
    order, and the best delta tried — so infeasible configurations coming
    from registry-added algorithms are diagnosable. *)

val idle_per_qubit : Device.t -> float array
(** Convenience over {!idle}: the parking frequency of every qubit. *)

val interaction :
  ?lo:float -> ?hi:float -> Device.t -> n_colors:int -> multiplicity:int array -> assignment
(** Solve for [n_colors] interaction frequencies; [multiplicity.(c)] is the
    number of active couplings colored [c] and orders the result (larger
    multiplicity, higher frequency).  [lo]/[hi] override the interaction
    region (used by ablations).
    @raise Invalid_argument on a size mismatch;
    @raise Failure if infeasible. *)

val spread : lo:float -> hi:float -> int -> float array
(** Evenly spaced fallback frequencies (used by crosstalk-unaware baselines):
    [n] values centered in [\[lo, hi\]]. *)
