(* Monotonic deadlines for budget-bounded compilation.

   A deadline is an immutable instant on the CLOCK_MONOTONIC timeline (via
   bechamel's clock stub — Unix.gettimeofday would make budgets jump with
   NTP steps).  Being a plain record it can be checked from any domain; the
   *ambient* deadline below is per-domain state, installed around a
   computation by [with_deadline].  The passes and solvers that poll it run
   on the domain that installed it: nothing budgeted is shipped to a pool
   worker, whose ambient state starts empty. *)

exception Expired of string

type t = { label : string; expires_at_ns : int64 }

let label t = t.label

let now_ns () = Monotonic_clock.now ()

let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let after_ms ?(label = "deadline") ms =
  if not (Float.is_finite ms) || ms < 0.0 then
    invalid_arg "Deadline.after_ms: budget must be finite and >= 0";
  { label; expires_at_ns = Int64.add (now_ns ()) (Int64.of_float (ms *. 1e6)) }

let remaining_ms t = Int64.to_float (Int64.sub t.expires_at_ns (now_ns ())) *. 1e-6

let expired t = Int64.compare (now_ns ()) t.expires_at_ns >= 0

(* --- the ambient per-domain deadline --- *)

let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get ambient

let with_deadline d f =
  let prev = Domain.DLS.get ambient in
  (* nesting tightens, never loosens: an inner, longer deadline cannot
     outlive the budget already imposed by an enclosing one *)
  let effective =
    match prev with
    | Some p when Int64.compare p.expires_at_ns d.expires_at_ns <= 0 -> p
    | _ -> d
  in
  Domain.DLS.set ambient (Some effective);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f

let check ?site () =
  match Domain.DLS.get ambient with
  | Some d when expired d ->
    let where = match site with None -> d.label | Some s -> d.label ^ " at " ^ s in
    raise (Expired where)
  | _ -> ()

let () =
  Printexc.register_printer (function
    | Expired label -> Some (Printf.sprintf "Deadline.Expired(%s)" label)
    | _ -> None)
