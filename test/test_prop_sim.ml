(* Differential properties for the flat-float simulation kernels: the
   unboxed Statevector must agree with the boxed Statevector_ref oracle on
   random full-gate-set circuits, the density-matrix evolution must agree
   with a noise-free trajectory, and the parallel Monte-Carlo mean must be
   bit-identical at any job count. *)
open Helpers

let circuits = Proptest.circuit ~max_qubits:5 ~max_gates:25 ()

let prop_flat_matches_boxed =
  prop_case "flat kernels match boxed reference on random circuits" circuits (fun c ->
      let flat = Statevector.amplitudes (Statevector.of_circuit c) in
      let boxed = Statevector_ref.amplitudes (Statevector_ref.of_circuit c) in
      let worst = ref 0.0 in
      Array.iteri
        (fun k a -> worst := Float.max !worst (Complex.norm (Complex.sub a boxed.(k))))
        flat;
      !worst <= 1e-9)

(* Lower a circuit to unitary-only noisy steps (one event per step). *)
let steps_of_circuit c =
  Array.to_list
    (Array.map
       (fun app -> [ Noisy_sim.Unitary (app.Gate.gate, Array.to_list app.Gate.qubits) ])
       (Circuit.instructions c))

let prop_density_matches_trajectory =
  prop_case ~count:60 "density evolution matches statevector on unitary-only steps" circuits
    (fun c ->
      let n_qubits = Circuit.n_qubits c in
      let steps = steps_of_circuit c in
      let rho = Density.run_steps ~n_qubits steps in
      (* No noise events: one trajectory is exact and rng-independent. *)
      let psi = Noisy_sim.run_trajectory (Rng.create 0) ~n_qubits steps in
      Float.abs (Density.purity rho -. 1.0) <= 1e-9
      && Float.abs (Density.fidelity_pure rho psi -. 1.0) <= 1e-9)

let noisy_steps =
  [
    [ Noisy_sim.Unitary (Gate.H, [ 0 ]); Noisy_sim.Unitary (Gate.Cz, [ 0; 1 ]) ];
    [
      Noisy_sim.Partial_exchange { a = 1; b = 2; theta = 0.2 };
      Noisy_sim.Pauli_noise { q = 0; p_x = 0.05; p_y = 0.03; p_z = 0.02 };
    ];
    [
      Noisy_sim.Unitary (Gate.Sx, [ 2 ]);
      Noisy_sim.Pauli_noise { q = 1; p_x = 0.02; p_y = 0.02; p_z = 0.08 };
      Noisy_sim.Pauli_noise { q = 2; p_x = 0.04; p_y = 0.01; p_z = 0.03 };
    ];
  ]

let test_average_fidelity_jobs_invariant () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:3 noisy_steps in
  let mean_at jobs =
    Pool.set_default_jobs jobs;
    let rng = Rng.create 42 in
    let mean = Noisy_sim.average_fidelity rng ~n_qubits:3 ~ideal ~steps:noisy_steps ~trials:40 in
    (* The caller's generator must also end in the same state. *)
    (mean, Rng.int64 rng)
  in
  let before = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs before)
    (fun () ->
      let serial, state1 = mean_at 1 in
      let parallel, state4 = mean_at 4 in
      check_true "mean bit-identical at jobs=1 and jobs=4"
        (Int64.bits_of_float serial = Int64.bits_of_float parallel);
      check_true "caller rng advanced identically" (Int64.equal state1 state4);
      check_true "mean is a fidelity" (serial >= 0.0 && serial <= 1.0 +. 1e-9))

let test_average_fidelity_rejects_zero_trials () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:3 noisy_steps in
  Alcotest.check_raises "trials must be positive"
    (Invalid_argument "Noisy_sim.average_fidelity: trials must be positive") (fun () ->
      ignore
        (Noisy_sim.average_fidelity (Rng.create 1) ~n_qubits:3 ~ideal ~steps:noisy_steps ~trials:0))

let suite =
  [
    prop_flat_matches_boxed;
    prop_density_matches_trajectory;
    Alcotest.test_case "average_fidelity jobs invariance" `Quick
      test_average_fidelity_jobs_invariant;
    Alcotest.test_case "average_fidelity zero trials" `Quick
      test_average_fidelity_rejects_zero_trials;
  ]
