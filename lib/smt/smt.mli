(** Separation-constraint solver over bounded reals.

    This module replaces the Z3 usage of the paper's reference implementation
    (§V-B3).  The compiler's frequency-assignment subproblem is: given one
    real variable per color, bounds [lo <= x_c <= hi] (eq. 1), and pairwise
    constraints [|x_i + offset - x_j| >= delta] — offset 0 for the plain
    separation of eq. 2 and offset = anharmonicity for the sideband
    separation of eq. 3 — find a feasible assignment, and find the largest
    [delta] for which one exists (the paper's [smt_find] binary search).

    The module has one feasibility search, {!solve}, and one max-delta
    search over it, {!find_max_delta}; both run serially on the calling
    domain.  The number of variables equals the number of colors, which the
    compilation pipeline keeps small (§VII-C), so a complete backtracking
    search over value orderings is affordable and exact.  When the caller
    supplies a total [order] (the paper orders colors by multiplicity so that
    busier colors get higher frequencies), the search is restricted to
    assignments respecting that order. *)

type t
(** A problem instance; mutable while constraints are added. *)

val create : ?lo:float -> ?hi:float -> int -> t
(** [create n] makes a problem with [n] variables, each bounded by the given
    default range (defaults [0., 1.]).
    @raise Invalid_argument if [n < 0] or [lo > hi]. *)

val set_bounds : t -> int -> lo:float -> hi:float -> unit
(** Override the bounds of one variable. *)

val add_separation : ?offset:float -> t -> int -> int -> unit
(** [add_separation ~offset t i j] records [|x_i + offset - x_j| >= delta]
    (with [delta] supplied at solve time).  [i = j] with [offset <> 0.] is
    allowed and constrains a variable against its own sideband; [i = j] with
    [offset = 0.] is rejected as unsatisfiable for positive [delta]. *)

val add_forbidden : t -> int -> center:float -> t
(** [add_forbidden t i ~center] forbids [x_i] from the open interval
    [(center - delta, center + delta)] — used to keep interaction frequencies
    away from fixed parked neighbours.  Returns [t] for chaining. *)

val solve : ?order:int list -> t -> delta:float -> float array option
(** [solve t ~delta] finds a feasible assignment or [None].  With [order],
    the assignment additionally satisfies
    [x_order(0) <= x_order(1) <= ...], and the search runs over the whole
    problem — the global monotone chain deliberately spans components.

    Without [order] the search decomposes: independent connected components
    of the constraint graph (see {!component_partition}) are solved one after
    another on their own restricted subproblems and the witnesses merged in
    component order.  Single-component problems run the whole-problem search
    directly, so witnesses for the complete-graph problems the compiler
    builds are those of the undecomposed solver.
    @raise Invalid_argument if [order] does not list every variable. *)

val component_partition : t -> int list list
(** Connected components of the constraint graph (variables joined by binary
    separations; self-sidebands and forbidden zones are unary and join
    nothing).  Each component is sorted ascending, components ordered by
    smallest variable — the merge order of the decomposed {!solve}. *)

type violation =
  | Length_mismatch of int  (** Assignment length (problem size expected). *)
  | Not_finite of int  (** Variable holding NaN or an infinity. *)
  | Out_of_bounds of int  (** Variable outside its [lo, hi] range. *)
  | Separation_violated of int * int * float
      (** [(i, j, offset)] with [|x_i + offset - x_j| < delta]. *)
  | Forbidden_violated of int * float
      (** [(i, center)] with [x_i] inside the forbidden interval. *)

val violations : t -> delta:float -> float array -> violation list
(** Every constraint the assignment breaks at the given [delta], in a
    deterministic order (length, finiteness, bounds, separations, forbidden
    zones).  Comparisons carry a small epsilon slack so assignments exactly
    at the boundary — e.g. two variables separated by precisely [delta] —
    verify as satisfying.  Non-finite values are violations: an all-NaN
    array satisfies no constraint system. *)

val verify : t -> delta:float -> float array -> bool
(** Independent verifier: does the assignment satisfy bounds, separations and
    forbidden zones at the given [delta]?  Equivalent to
    [violations t ~delta a = []] — an oracle for any assignment regardless of
    which search path produced it.  Used by the property-based suites and as
    an internal sanity assertion. *)

val find_max_delta_count : unit -> int
(** Process-wide count of {!find_max_delta} invocations (each one full binary
    search).  Atomic, so safe to read while pool domains solve; the compiler's
    pass instrumentation reports per-pass deltas of this counter. *)

val find_max_delta :
  ?order:int list -> ?tolerance:float -> ?delta_hi:float -> t -> (float * float array) option
(** Binary search for the maximum feasible [delta] (within [tolerance],
    default [1e-4]); returns the witness assignment found at that [delta].
    [None] when even [delta = 0] is infeasible.  [delta_hi] bounds the search
    from above (defaults to the widest variable range).

    One search covers the whole problem: without [order] every probe is the
    decomposed {!solve}, so on a multi-component problem the result is the
    smallest of the components' own maxima (the binding component caps the
    rest), and the witness verifies at that delta.

    Cooperative cancellation: {!solve} and {!find_max_delta} poll the
    calling domain's ambient {!Fastsc_util.Deadline} at chunk boundaries
    (per bisection probe, per 256 search nodes) and raise [Deadline.Expired]
    once the budget is gone — never [None], so budget exhaustion cannot
    masquerade as infeasibility. *)
