(** Density-matrix simulation with Kraus channels.

    The exact open-system counterpart of the Monte-Carlo trajectory
    simulator: instead of sampling Pauli errors per trajectory, the full
    density matrix evolves through the channels, so the simulated success
    probability carries no sampling noise.  Exponential in memory
    (4^n complex entries), practical to ~6 qubits — exactly the regime of
    the paper's §VI-C validation.

    Supported processes mirror {!Noisy_sim.event}: intended unitaries,
    coherent spectator exchanges, and per-slice decoherence — here as the
    proper amplitude-damping + pure-dephasing channels rather than their
    Pauli twirl, making this the reference the twirled trajectory model is
    checked against. *)

type t
(** A density matrix on [n] qubits; mutable in place. *)

val create : int -> t
(** |0..0><0..0| on [n] qubits (supported range 1..10). *)

val of_statevector : Statevector.t -> t
(** The pure state |psi><psi|. *)

val n_qubits : t -> int

val trace : t -> float
(** Real part of the trace; 1 up to numerical error for valid states. *)

val purity : t -> float
(** [Tr(rho^2)]; 1 for pure states, 1/2^n for the maximally mixed state. *)

val population : t -> int -> float
(** Diagonal entry: probability of a basis outcome. *)

val apply_unitary1 : t -> Matrix.t -> int -> unit
(** Conjugate by a 2x2 unitary on one qubit. *)

val apply_gate : t -> Gate.t -> int list -> unit

val apply_kraus1 : t -> Matrix.t list -> int -> unit
(** Apply a single-qubit channel given by its Kraus operators
    [rho -> sum_k K rho K†].  The operators must satisfy
    [sum K† K = I] (checked to 1e-6).
    @raise Invalid_argument otherwise. *)

val amplitude_damping : gamma:float -> Matrix.t list
(** Kraus operators of T1 relaxation with decay probability [gamma]. *)

val phase_damping : lambda:float -> Matrix.t list
(** Kraus operators of pure dephasing with probability [lambda]. *)

val thermal_relaxation : t -> q:int -> t1:float -> t2:float -> time:float -> unit
(** Amplitude damping + pure dephasing of one qubit over [time] ns, with the
    pure-dephasing rate [1/T2 - 1/(2 T1)] floored at zero (same physics as
    {!Fastsc_noise.Decoherence.pauli_rates}, untwirled). *)

val run_steps : n_qubits:int -> Noisy_sim.step list -> t
(** Evolve |0..0> through lowered schedule steps: [Unitary] and
    [Partial_exchange] events apply exactly; each [Pauli_noise] event is
    applied as the corresponding Pauli channel (matching the trajectory
    simulator's model, so the two agree in expectation). *)

val fidelity_pure : t -> Statevector.t -> float
(** [<psi| rho |psi>] — success probability against an ideal pure state. *)
