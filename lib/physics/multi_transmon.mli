(** Multi-transmon Hamiltonian simulation at the qutrit level.

    The gold-standard microscopic model behind the compiler's noise
    heuristics: [n] transmons, each truncated to three levels, with exchange
    couplings — the full device physics of §II including the leakage channel
    through |2> that two-level simulators cannot express.  States live in the
    3^n-dimensional product space (qutrit [i] is digit [i], base 3, little
    endian); evolution integrates the Schroedinger equation with a classical
    RK4 stepper (the Hamiltonian is applied matrix-free, so dimensions up to
    ~3^7 are practical).

    Basis-state {e populations} are invariant under the diagonal
    rotating-frame transformation, so transfer probabilities and leakage
    measured here are frame-independent physical quantities — they can be
    compared directly against {!Coupled_pair}/{!Evolution} results and
    against the compiler's per-channel error estimates. *)

type spec = {
  freqs : float array;  (** omega_01 per transmon, GHz. *)
  alphas : float array;  (** Anharmonicity per transmon, GHz (negative). *)
  couplings : (int * int * float) list;  (** [(a, b, g)] exchange pairs, GHz. *)
}

val dimension : spec -> int
(** [3^n].
    @raise Invalid_argument if any coupling index is out of range or the
    array lengths disagree (checked on first use of the spec). *)

val basis_index : spec -> int array -> int
(** Index of a product state given per-transmon levels (each 0..2). *)

val levels_of_index : spec -> int -> int array

val basis_state : spec -> int array -> Complex.t array

val apply_hamiltonian : spec -> Complex.t array -> Complex.t array
(** [H |psi>] in angular units (rad/ns), matrix-free. *)

val evolve : ?dt:float -> spec -> Complex.t array -> t:float -> Complex.t array
(** RK4 integration of [-i H psi] for [t] ns; [dt] defaults to 0.02 ns
    (well below the fastest phase period at 7 GHz... in the rotating terms
    that matter the error is O(dt^4); halve it to check convergence). *)

val population : Complex.t array -> int -> float

val subspace_population : spec -> Complex.t array -> (int array -> bool) -> float
(** Total population over basis states whose level vector satisfies the
    predicate. *)

val leakage : spec -> Complex.t array -> float
(** Population outside the computational (all digits <= 1) subspace. *)

val transfer_probability :
  ?dt:float -> spec -> from_levels:int array -> to_levels:int array -> t:float -> float
(** Evolve a basis state and read one population — the Fig 15 primitive for
    arbitrarily many transmons. *)
