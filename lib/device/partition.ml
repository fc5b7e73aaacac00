type t = {
  parking_lo : float;
  parking_hi : float;
  exclusion_lo : float;
  exclusion_hi : float;
  interaction_lo : float;
  interaction_hi : float;
}

let make ~lo ~hi =
  if lo >= hi then invalid_arg "Partition.make: lo >= hi";
  let width = hi -. lo in
  (* 12 : 43 : 45 split, parking at the bottom: the paper parks near the low
     sweet spot and interacts near the high one (Appendix A).  The exclusion
     band is kept wider than the anharmonicity by a comfortable margin so
     that active gates stay far detuned from every parked qubit on both the
     direct and the sideband channels. *)
  let parking_hi = lo +. (0.12 *. width) in
  let exclusion_hi = lo +. (0.55 *. width) in
  {
    parking_lo = lo;
    parking_hi;
    exclusion_lo = parking_hi;
    exclusion_hi;
    interaction_lo = exclusion_hi;
    interaction_hi = hi;
  }

let custom ~parking:(plo, phi) ~exclusion:(elo, ehi) ~interaction:(ilo, ihi) =
  if not (plo < phi && phi <= elo && elo < ehi && ehi <= ilo && ilo < ihi) then
    invalid_arg "Partition.custom: bands must be disjoint and ordered";
  {
    parking_lo = plo;
    parking_hi = phi;
    exclusion_lo = elo;
    exclusion_hi = ehi;
    interaction_lo = ilo;
    interaction_hi = ihi;
  }

let in_parking t f = f >= t.parking_lo && f <= t.parking_hi

let in_exclusion t f = f > t.exclusion_lo && f < t.exclusion_hi

let in_interaction t f = f >= t.interaction_lo && f <= t.interaction_hi

let parking_width t = t.parking_hi -. t.parking_lo

let pp fmt t =
  Format.fprintf fmt "parking [%.3f, %.3f] / exclusion (%.3f, %.3f) / interaction [%.3f, %.3f]"
    t.parking_lo t.parking_hi t.exclusion_lo t.exclusion_hi t.interaction_lo t.interaction_hi
