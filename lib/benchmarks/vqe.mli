(** Hardware-efficient VQE ansatz benchmark family.

    The circuit shape of variational eigensolvers on superconducting
    hardware: [layers] repetitions of a parameterised rotation layer
    (Ry, Rz on every qubit) followed by a linear CZ entangler chain, closed
    by one final rotation layer.  Angles are drawn from the supplied
    generator, so circuits are reproducible per seed.  Rotation-dense, with
    long same-qubit 1q runs: a per-round workload representative of
    variational outer loops. *)

val circuit : Rng.t -> ?layers:int -> n:int -> unit -> Circuit.t
(** [circuit rng ~layers ~n ()] ([layers] defaults to 2).
    @raise Invalid_argument if [n < 2] or [layers < 1]. *)
