(** The graceful-degradation ladder: budgeted compilation that always
    answers.

    A request walks three rungs until one produces a schedule within the
    remaining budget:

    + {b full} — the requested algorithm with its full SMT solve, given the
      first half of the budget (the rest is the greedy rung's room);
    + {b stale} — a previously computed witness for the identical compile
      problem (in-memory cache, no SMT, deadline-immune);
    + {b greedy} — the [greedy-spread] scheduler: graph coloring only, runs
      without a deadline and always succeeds.

    The full rung abandons work via the cooperative [Deadline.Expired] polls
    in [Pass]/[Smt]; the ladder records every attempt (tier, wall-clock,
    outcome) in the response trace. *)

type tier = Full | Stale | Greedy
(** Named ["full"], ["stale"] and ["greedy"] in a response's [tier] and
    attempt trail. *)

val compile : ?default_deadline_ms:float -> Protocol.request -> Protocol.response
(** Walk the ladder for one request.  The budget is the request's
    [deadline_ms] when present, else [default_deadline_ms], else unlimited
    (the first rung then always produces the answer).  Always returns
    [Ok_response] — errors that precede the ladder (unknown algorithm,
    unrealizable request) raise {!Protocol.Bad_request}; anything else
    escaping is a daemon-level internal error.

    Successful full-rung results are stored in the stale-witness cache under
    {!Protocol.cache_key}; greedy results are not (a stale hit must never be
    worse than what the greedy rung would recompute). *)

val stale_cache_stats : unit -> int * int * int
(** [(hits, misses, entries)] of the stale-witness cache. *)

val reset_stale_cache : unit -> unit
(** Empty the stale-witness cache and zero its counters (tests). *)
