(* Seeded input generation for the four workloads.

   Everything the compiler receives is derived from the workload seed and
   the fixed [suite_seed]: the same seed gives a byte-identical program list
   and serve request stream ({!fingerprint} is what the self-test compares).  A program is the
   problem one `fastsc compile --bench B -n N --topology T --seed S
   --algorithm A` call poses, so any result can be reproduced from the CLI. *)

type program = {
  label : string;
  bench : string;
  n : int;
  topology : string;
  seed : int;  (** Device fabrication and circuit seed, as the CLI's [--seed]. *)
  algorithm : string;
}

(* A stable per-label seed: [Hashtbl.hash] is unseeded and identical across
   runs and builds of the same compiler. *)
let derive base label = 1 + (Hashtbl.hash (base, label) mod 999_983)

(* [base] is the workload seed or the fixed [suite_seed]. *)
let program base ~bench ~n ~topology ~algorithm ~copy =
  let label = Printf.sprintf "%s-%d-%s-%s-%d" bench n topology algorithm copy in
  (* the seed ignores the algorithm, so every scheduler sees the same device
     and circuit for one (bench, n, topology, copy) *)
  let seed = derive base (Printf.sprintf "%s-%d-%s-%d" bench n topology copy) in
  { label; bench; n; topology; seed; algorithm }

let request_of_program p =
  {
    Protocol.id = "";
    bench = p.bench;
    qasm = None;
    n = p.n;
    topology = p.topology;
    seed = p.seed;
    algorithm = p.algorithm;
    deadline_ms = None;
    warm_start = false;
    decompose_components = false;
    crosstalk_distance = 1;
  }

(* Build the device and circuit exactly as the CLI and the serve daemon do. *)
let realize p = Protocol.realize (request_of_program p)

(* -- compile workloads ----------------------------------------------------- *)

(* Every workload's problems are one fixed suite drawn from [suite_seed];
   the workload seed orders them (and, for validate, seeds the trajectories;
   for serve, places the repeats).  Two random instances of one size differ
   by up to 1.5x in compile time and 2x in depth (QAOA at 49 and 64 qubits),
   so a seeded draw of a handful of programs would move every metric further
   than any regression bound; even nisq-mix's eighty programs, drawn afresh
   per seed, moved the compile-time geomean by a tenth from seed to seed. *)
let suite_seed = 2020

(* QAOA MaxCut at the default edge probability on square grids: routing
   dominates these dense interaction graphs and grows super-linearly, so
   fewer copies are drawn at the sizes that cost seconds. *)
let qaoa_sizes = [ (36, 3); (49, 2); (64, 2); (100, 1) ]

let shuffled workload_seed programs =
  let a = Array.of_list programs in
  Rng.shuffle (Rng.create workload_seed) a;
  Array.to_list a

let qaoa_frontend workload_seed =
  shuffled workload_seed
    (List.concat_map
       (fun (n, copies) ->
         List.init copies (fun copy ->
             program suite_seed ~bench:"qaoa" ~n ~topology:"grid" ~algorithm:"color-dynamic"
               ~copy))
       qaoa_sizes)

let table1_algorithms = [ "baseline-n"; "baseline-g"; "baseline-u"; "baseline-s"; "color-dynamic" ]

(* The other Table II families under every Table I scheduler on meshes up to
   49 qubits and rings up to 144.  Larger meshes would make [place] the
   biggest layer (with 100q and 144q meshes, trial-routing xeb alone took
   over a quarter of a pass), and this is the workload where routing must stay cheap. *)
let nisq_shapes = [ (25, "grid"); (49, "grid"); (100, "ring"); (144, "ring") ]

let nisq_mix workload_seed =
  shuffled workload_seed
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun (n, topology) ->
             List.map
               (fun algorithm -> program suite_seed ~bench ~n ~topology ~algorithm ~copy:0)
               table1_algorithms)
           nisq_shapes)
       [ "bv"; "ising"; "qgan"; "xeb" ])

(* Every Table II family at the exact-simulation limit of `fastsc validate`. *)
let validate_programs workload_seed =
  shuffled workload_seed
    (List.map
       (fun bench ->
         program suite_seed ~bench ~n:9 ~topology:"grid" ~algorithm:"color-dynamic" ~copy:0)
       [ "bv"; "qaoa"; "ising"; "qgan"; "xeb" ])

(* The trajectory sampler's seed for one program. *)
let trajectory_seed workload_seed p = derive workload_seed p.label

(* -- the serve request stream ---------------------------------------------- *)

type budget = No_budget | Generous | Tight of float

type serve_request = {
  line : string;  (** The JSONL request line sent to the daemon. *)
  request : Protocol.request;
  repeat : bool;  (** Re-poses the cache key of an earlier request. *)
}

let generous_ms = 5000.0

let deadline_of = function No_budget -> None | Generous -> Some generous_ms | Tight ms -> Some ms

(* One block of the stream is a fixed mix of request classes, so every
   block carries the same share of each class and the latency percentiles
   do not hinge on how many heavy requests a seed happens to draw.  The
   problems of block [b] come from the fixed suite; the seed draws the order
   and where each repeat lands, which decides what the caches hold when a
   request arrives.  Tight budgets sit far below today's service time (the
   1 ms ones under every rung, the QAOA ones under the front end alone), so
   whether a request meets its budget does not depend on timing noise.  Per
   block, QAOA-64 is the slowest 3% and the three QAOA-49 full compiles the
   next 8%, so the 95th latency percentile falls inside one class. *)
let fresh_slots =
  [
    ("bv", 16, No_budget); ("bv", 36, Generous); ("bv", 64, No_budget);
    ("ising", 25, No_budget); ("ising", 49, Generous); ("ising", 64, No_budget);
    ("qgan", 25, No_budget); ("qgan", 49, Generous); ("qgan", 64, Tight 1.0);
    ("xeb", 36, No_budget); ("xeb", 49, Generous); ("xeb", 64, Tight 1.0);
    ("ghz", 16, No_budget); ("ghz", 36, Generous); ("ghz", 49, No_budget); ("ghz", 64, No_budget);
    ("qft", 9, Generous); ("qft", 9, No_budget); ("qft", 16, No_budget); ("qft", 25, No_budget);
    ("qaoa", 36, No_budget); ("qaoa", 36, Tight 50.0); ("qaoa", 49, Generous);
    ("qaoa", 49, Generous); ("qaoa", 64, Tight 200.0);
  ]

(* About a third of a block re-poses the cache key of an earlier request of
   the same block (fresh id, the budget given here), always after it: a
   tight repeat of a key an SMT rung already solved is a stale-witness hit,
   the others are warm recomputes.  [(fresh slot index, budget)]. *)
let repeat_slots =
  [
    (1, No_budget); (4, Tight 1.0); (9, Generous); (14, Generous); (6, No_budget);
    (18, Tight 1.0); (19, No_budget); (2, Generous); (3, No_budget); (7, No_budget);
    (20, No_budget); (22, Tight 100.0); (23, Generous);
  ]

let block_size = List.length fresh_slots + List.length repeat_slots

let request_line (r : Protocol.request) =
  let fields =
    [
      ("id", Json.String r.Protocol.id);
      ("bench", Json.String r.Protocol.bench);
      ("n", Json.Int r.Protocol.n);
      ("topology", Json.String r.Protocol.topology);
      ("seed", Json.Int r.Protocol.seed);
      ("algorithm", Json.String r.Protocol.algorithm);
    ]
    @ match r.Protocol.deadline_ms with Some d -> [ ("deadline_ms", Json.Float d) ] | None -> []
  in
  Json.to_string ~pretty:false (Json.Obj fields)

(* [blocks] whole blocks of the seeded stream; request ids are "r<index>". *)
let serve_stream workload_seed ~blocks =
  let rng = Rng.create workload_seed in
  let one_block block =
    let fresh =
      Array.of_list
        (List.mapi
           (fun slot (bench, n, budget) ->
             let p =
               program suite_seed ~bench ~n ~topology:"grid" ~algorithm:"color-dynamic"
                 ~copy:((block * 100) + slot)
             in
             (request_of_program p, budget))
           fresh_slots)
    in
    let order = Array.init (Array.length fresh) Fun.id in
    Rng.shuffle rng order;
    (* each repeat lands at a seeded position after its original *)
    let seq = ref (List.map (fun i -> (fresh.(i), false)) (Array.to_list order)) in
    List.iter
      (fun (slot, budget) ->
        let problem = fst fresh.(slot) in
        let rec index k = function
          | ((r, _), _) :: rest -> if r == problem then k else index (k + 1) rest
          | [] -> assert false
        in
        let after = index 0 !seq + 1 in
        let at = after + Rng.int rng (List.length !seq - after + 1) in
        seq :=
          List.filteri (fun k _ -> k < at) !seq
          @ [ ((problem, budget), true) ]
          @ List.filteri (fun k _ -> k >= at) !seq)
      repeat_slots;
    List.mapi
      (fun k ((problem, budget), repeat) ->
        let id = Printf.sprintf "r%d" ((block * block_size) + k) in
        let request = { problem with Protocol.id; deadline_ms = deadline_of budget } in
        { line = request_line request; request; repeat })
      !seq
  in
  (* blocks draw from [rng] in order *)
  let rec go block acc =
    if block = blocks then List.concat (List.rev acc) else go (block + 1) (one_block block :: acc)
  in
  go 0 []

let program_line p =
  Printf.sprintf "%s %s %d %s %d %s" p.label p.bench p.n p.topology p.seed p.algorithm

(* Canonical bytes of every input a seed produces (the self-test compares). *)
let fingerprint workload_seed =
  let programs =
    List.concat_map
      (fun f -> List.map program_line (f workload_seed))
      [ qaoa_frontend; nisq_mix; validate_programs ]
  in
  String.concat "\n"
    (programs @ List.map (fun r -> r.line) (serve_stream workload_seed ~blocks:2))
