(* Wall clock for the benchmark: CLOCK_MONOTONIC in nanoseconds. The
   read does not allocate, so timing a call adds no GC work to it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
