(** Ideal state-vector simulation.

    Replaces Qiskit Aer for the scales this paper needs: verifying gate
    decompositions (unitary equivalence up to global phase), computing ideal
    output distributions for the success-rate validation (§VI-C), and the
    reference states against which noisy trajectories are scored.  Amplitude
    arrays are dense, so practical up to roughly 24 qubits.

    Bit convention: qubit [k] is bit [k] of the basis-state index (qubit 0 is
    least significant).  For two-qubit gates the {e first} operand is the
    most significant bit of the 4x4 matrix basis, matching
    {!Gate.unitary}.

    Amplitudes are stored unboxed in two [Bigarray] float64 planes (split
    re/im) that {!Density}, {!Unitary} and the simulation benches read
    through {!buffers} without boxing.  Gate kernels apply one gate at a
    time, serially, walking the state in contiguous runs (cache-blocked
    index enumeration).  {!Statevector_ref} is the boxed reference
    implementation the differential tests compare against. *)

type t

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One flat float64 amplitude plane, indexed by basis state. *)

val create : int -> t
(** [create n] is |0...0> on [n] qubits.
    @raise Invalid_argument unless [1 <= n <= 24]. *)

val reset : t -> unit
(** Return to |0...0> in place, reusing the buffers (the Monte-Carlo
    trajectory loop resets one state per worker instead of allocating one
    per trial). *)

val of_amplitudes : Complex.t array -> t
(** Copies the array (length must be a power of two); later caller mutation
    cannot corrupt the state.  The state is not renormalised. *)

val n_qubits : t -> int

val copy : t -> t

val buffers : t -> plane * plane
(** [(re, im)] — the {e live} amplitude planes, indexed by basis state.
    Mutating them mutates the state; intended for kernel-level consumers
    ({!Unitary}, {!Density}, the simulation benches) that want amplitude
    access without boxing.  Renormalisation is the caller's
    responsibility. *)

val amplitudes : t -> Complex.t array
(** A copy of the current amplitudes. *)

val amplitude : t -> int -> Complex.t

val apply : t -> Gate.t -> int list -> unit
(** Apply a gate in place.
    @raise Invalid_argument on arity/range errors. *)

val apply_matrix1 : t -> Matrix.t -> int -> unit
(** Apply an arbitrary 2x2 unitary to one qubit. *)

val apply_matrix2 : t -> Matrix.t -> int -> int -> unit
(** Apply an arbitrary 4x4 unitary to an ordered qubit pair (first operand =
    most significant). *)

val run : t -> Circuit.t -> unit
(** Apply every instruction of the circuit in order. *)

val of_circuit : Circuit.t -> t
(** Fresh |0..0> state with the circuit applied. *)

val probability : t -> int -> float
(** Probability of one basis outcome. *)

val probabilities : t -> float array

val fidelity : t -> t -> float
(** [|<a|b>|^2].
    @raise Invalid_argument on size mismatch. *)

val norm : t -> float

val measure : Rng.t -> t -> int
(** Sample a basis state from the output distribution (state unchanged). *)
