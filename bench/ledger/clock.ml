(* The benchmark's two clocks.  Every [*_s] / [*_ms] figure is wall time
   from CLOCK_MONOTONIC (never [Sys.time], which sums CPU over domains
   and hides parallel speed-ups); CPU time is read only to report it as
   CPU ([pdes.cpu_per_wall]).  The simulator never reads a clock itself:
   the benchmark injects [now] through [Dsim.Sim.set_wall_clock]. *)

let wall_kind = "CLOCK_MONOTONIC"
let cpu_kind = "times(2) user+sys, whole process"
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Wall seconds spent in [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
