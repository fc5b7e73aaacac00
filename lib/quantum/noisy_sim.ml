type event =
  | Unitary of Gate.t * int list
  | Partial_exchange of { a : int; b : int; theta : float }
  | Pauli_noise of { q : int; p_x : float; p_y : float; p_z : float }

type step = event list

let exchange_unitary theta =
  let c = cos theta and s = sin theta in
  let z0 = Complex.zero and z1 = Complex.one in
  let cr = { Complex.re = c; im = 0.0 } and msi = { Complex.re = 0.0; im = -.s } in
  Matrix.of_arrays
    [|
      [| z1; z0; z0; z0 |];
      [| z0; cr; msi; z0 |];
      [| z0; msi; cr; z0 |];
      [| z0; z0; z0; z1 |];
    |]

let apply_event rng state = function
  | Unitary (gate, qubits) -> Statevector.apply state gate qubits
  | Partial_exchange { a; b; theta } ->
    Statevector.apply_matrix2 state (exchange_unitary theta) a b
  | Pauli_noise { q; p_x; p_y; p_z } ->
    let u = Rng.float rng in
    if u < p_x then Statevector.apply state Gate.X [ q ]
    else if u < p_x +. p_y then Statevector.apply state Gate.Y [ q ]
    else if u < p_x +. p_y +. p_z then Statevector.apply state Gate.Z [ q ]

let run_trajectory_into state rng steps =
  Statevector.reset state;
  List.iter (fun step -> List.iter (apply_event rng state) step) steps

let run_trajectory rng ~n_qubits steps =
  let state = Statevector.create n_qubits in
  run_trajectory_into state rng steps;
  state

let ideal_of_steps ~n_qubits steps =
  let state = Statevector.create n_qubits in
  List.iter
    (fun step ->
      List.iter
        (function
          | Unitary (gate, qubits) -> Statevector.apply state gate qubits
          | Partial_exchange _ | Pauli_noise _ -> ())
        step)
    steps;
  state

(* One reusable trajectory state per domain: a worker allocates its state on
   the first trial it executes and resets it in place for every later one. *)
let trajectory_state = Domain.DLS.new_key (fun () -> ref None)

let average_fidelity rng ~n_qubits ~ideal ~steps ~trials =
  if trials <= 0 then invalid_arg "Noisy_sim.average_fidelity: trials must be positive";
  (* Each trial gets its own generator, split from the caller's in index
     order before the fan-out.  The trial->stream mapping (and the caller's
     final rng state) is therefore fixed before any scheduling happens, and
     the index-ordered sum below makes the mean bit-identical at any
     [--jobs]. *)
  let seeds = Rng.split_n rng trials in
  let fidelities =
    Pool.map_array
      (fun trial_rng ->
        let cache = Domain.DLS.get trajectory_state in
        let state =
          match !cache with
          | Some (n, st) when n = n_qubits -> st
          | _ ->
            let st = Statevector.create n_qubits in
            cache := Some (n_qubits, st);
            st
        in
        run_trajectory_into state trial_rng steps;
        Statevector.fidelity ideal state)
      seeds
  in
  let total = ref 0.0 in
  Array.iter (fun f -> total := !total +. f) fidelities;
  !total /. float_of_int trials
