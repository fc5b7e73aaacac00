(* The memo caches behind Freq_alloc and Crosstalk: stats count hits and
   misses correctly, reset really empties the tables, the size bound recycles
   the table rather than growing without limit, and returned values are
   copies (mutating a result must never poison the cache). *)
open Helpers
open Fastsc_device
open Fastsc_noise
open Fastsc_core

let device () = Device.create ~seed:11 (Topology.grid 3 3)

(* -- Freq_alloc solver cache ----------------------------------------------- *)

let test_solver_stats_zero_after_reset () =
  Freq_alloc.reset_solver_cache ();
  let s = Freq_alloc.solver_cache_stats () in
  check_int "hits" 0 s.Freq_alloc.hits;
  check_int "misses" 0 s.Freq_alloc.misses;
  check_int "entries" 0 s.Freq_alloc.entries

let test_solver_hit_miss_counting () =
  let d = device () in
  Freq_alloc.reset_solver_cache ();
  let _, a1 = Freq_alloc.idle d in
  let s1 = Freq_alloc.solver_cache_stats () in
  check_int "first idle solve misses" 1 s1.Freq_alloc.misses;
  check_int "no hits yet" 0 s1.Freq_alloc.hits;
  check_int "one entry" 1 s1.Freq_alloc.entries;
  let _, a2 = Freq_alloc.idle d in
  let s2 = Freq_alloc.solver_cache_stats () in
  check_int "second idle solve hits" 1 s2.Freq_alloc.hits;
  check_int "no extra miss" 1 s2.Freq_alloc.misses;
  check_true "hit equals miss result" (a1.Freq_alloc.freqs = a2.Freq_alloc.freqs);
  check_float "same delta" a1.Freq_alloc.delta a2.Freq_alloc.delta

let test_solver_entries_grow_with_distinct_problems () =
  let d = device () in
  Freq_alloc.reset_solver_cache ();
  ignore (Freq_alloc.idle d);
  ignore (Freq_alloc.interaction d ~n_colors:2 ~multiplicity:[| 1; 2 |]);
  ignore (Freq_alloc.interaction d ~n_colors:3 ~multiplicity:[| 1; 2; 3 |]);
  let s = Freq_alloc.solver_cache_stats () in
  check_int "three distinct problems, three entries" 3 s.Freq_alloc.entries;
  check_int "three misses" 3 s.Freq_alloc.misses

let test_solver_key_discriminates_alpha () =
  (* two devices identical but for anharmonicity: the idle separation
     problems then share (n, band, order) and differ only in the sideband
     offset, so the memo key must keep them apart — a collision would hand
     the second device the first one's frequencies *)
  Freq_alloc.reset_solver_cache ();
  let with_alpha anharmonicity =
    Device.create
      ~params:{ Device.default_params with Device.anharmonicity }
      ~seed:11 (Topology.grid 3 3)
  in
  let _, a1 = Freq_alloc.idle (with_alpha 0.2) in
  let _, a2 = Freq_alloc.idle (with_alpha 0.34) in
  let s = Freq_alloc.solver_cache_stats () in
  check_int "distinct sideband offsets are distinct keys" 2 s.Freq_alloc.misses;
  check_int "no false hit across offsets" 0 s.Freq_alloc.hits;
  check_int "both stored" 2 s.Freq_alloc.entries;
  check_true "sideband offset changes the achievable separation"
    (a1.Freq_alloc.delta <> a2.Freq_alloc.delta)

let test_solver_copy_on_hit () =
  let d = device () in
  Freq_alloc.reset_solver_cache ();
  let _, first = Freq_alloc.idle d in
  let reference = Array.copy first.Freq_alloc.freqs in
  (* smash the returned array; the cache must hold its own copy *)
  let _, vandal = Freq_alloc.idle d in
  Array.fill vandal.Freq_alloc.freqs 0 (Array.length vandal.Freq_alloc.freqs) 999.0;
  let _, again = Freq_alloc.idle d in
  check_true "cache unpoisoned by caller mutation" (again.Freq_alloc.freqs = reference)

let test_solver_cache_size_bound () =
  (* fill the table to its 2^16 bound with distinct keys (the interaction
     band's lower edge is part of the key), then push past it: the table
     recycles rather than growing without limit *)
  let d = device () in
  Freq_alloc.reset_solver_cache ();
  let bound = 1 lsl 16 in
  let probe i =
    Freq_alloc.interaction d
      ~lo:(4.0 +. (float_of_int i *. 1e-7))
      ~n_colors:1 ~multiplicity:[| 1 |]
  in
  for i = 0 to bound - 1 do
    ignore (probe i)
  done;
  let full = Freq_alloc.solver_cache_stats () in
  check_int "table filled to the bound" bound full.Freq_alloc.entries;
  check_int "every fill was a miss" bound full.Freq_alloc.misses;
  ignore (probe bound);
  let recycled = Freq_alloc.solver_cache_stats () in
  check_int "hitting the bound recycles the table" 1 recycled.Freq_alloc.entries;
  check_int "counters keep counting across the recycle" (bound + 1) recycled.Freq_alloc.misses;
  ignore (probe 0);
  let refilled = Freq_alloc.solver_cache_stats () in
  check_int "the evicted key recomputes as a miss" (bound + 2) refilled.Freq_alloc.misses

(* -- Crosstalk pair cache -------------------------------------------------- *)

let pair ?(omega_b = 5.6) () =
  Crosstalk.pair_error ~alpha_a:(-0.3) ~alpha_b:(-0.3) ~g:0.015 ~omega_a:5.0 ~omega_b
    ~t:50.0 ()

let test_pair_hit_miss_counting () =
  Crosstalk.reset_pair_cache ();
  let p1 = pair () in
  let s1 = Crosstalk.pair_cache_stats () in
  check_int "cold call misses" 1 s1.Crosstalk.misses;
  check_int "cold call no hit" 0 s1.Crosstalk.hits;
  check_int "one entry" 1 s1.Crosstalk.entries;
  let p2 = pair () in
  let s2 = Crosstalk.pair_cache_stats () in
  check_int "warm call hits" 1 s2.Crosstalk.hits;
  check_true "hit is bit-identical" (Int64.bits_of_float p1 = Int64.bits_of_float p2);
  let _ = pair ~omega_b:5.7 () in
  let s3 = Crosstalk.pair_cache_stats () in
  check_int "distinct key misses" 2 s3.Crosstalk.misses;
  check_int "two entries" 2 s3.Crosstalk.entries;
  Crosstalk.reset_pair_cache ();
  let s4 = Crosstalk.pair_cache_stats () in
  check_int "reset zeroes hits" 0 s4.Crosstalk.hits;
  check_int "reset zeroes misses" 0 s4.Crosstalk.misses;
  check_int "reset empties the table" 0 s4.Crosstalk.entries

let test_pair_cache_survives_size_bound () =
  (* fill the table to its 2^16 bound with distinct keys, then push past it:
     the table recycles (reset, not unbounded growth) and stays correct *)
  Crosstalk.reset_pair_cache ();
  let bound = 1 lsl 16 in
  let probe i = pair ~omega_b:(5.0 +. (float_of_int i *. 1e-6)) () in
  let first = probe 0 in
  for i = 1 to bound - 1 do
    ignore (probe i)
  done;
  let full = Crosstalk.pair_cache_stats () in
  check_int "table filled to the bound" bound full.Crosstalk.entries;
  check_int "every fill was a miss" bound full.Crosstalk.misses;
  let _ = probe bound in
  let recycled = Crosstalk.pair_cache_stats () in
  check_int "hitting the bound recycles the table" 1 recycled.Crosstalk.entries;
  check_int "counters keep counting across the recycle" (bound + 1) recycled.Crosstalk.misses;
  (* the evicted key recomputes to the same bits *)
  check_true "recomputed after eviction, bit-identical"
    (Int64.bits_of_float first = Int64.bits_of_float (probe 0))

let suite =
  [
    Alcotest.test_case "solver stats zero after reset" `Quick test_solver_stats_zero_after_reset;
    Alcotest.test_case "solver hit/miss counting" `Quick test_solver_hit_miss_counting;
    Alcotest.test_case "solver entries per distinct problem" `Quick
      test_solver_entries_grow_with_distinct_problems;
    Alcotest.test_case "solver key discriminates alpha" `Quick
      test_solver_key_discriminates_alpha;
    Alcotest.test_case "solver copy-on-hit" `Quick test_solver_copy_on_hit;
    Alcotest.test_case "solver cache size bound" `Quick test_solver_cache_size_bound;
    Alcotest.test_case "pair hit/miss counting" `Quick test_pair_hit_miss_counting;
    Alcotest.test_case "pair cache size bound" `Quick test_pair_cache_survives_size_bound;
  ]
