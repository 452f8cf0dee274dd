(* Host-speed reference. On a shared host the machine's throughput drifts
   over minutes, whatever the benchmark does. A fixed integer loop that
   neither allocates nor calls the library is timed between rounds; the
   fastest of a run's timings is the host's speed during that run. The loop
   sees only the core slowing down; the simulator also loses cache and
   memory service at the same time. Over seven sets of 5-16 runs on a
   2-vCPU Intel Xeon VM its host time moved with the loop's time to a power
   of 1.1 to 3.9, median 2.4. Every time metric is therefore rescaled by
   [(nominal_s /. fastest) ** exponent], with the exponent on the low side
   of that range. A change to the simulator cannot move the loop, so it
   moves the rescaled times in full. *)

let iters = 5_000_000

(* The loop's typical fastest time on the host the bounds were set on.
   Rescaled times read as host seconds on that host at that speed. *)
let nominal_s = 0.021
let exponent = 2.0

let kernel () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + (!x land 1023)
  done;
  Sys.opaque_identity !acc

let time_kernel () =
  let t0 = Unix.gettimeofday () in
  ignore (kernel ());
  Unix.gettimeofday () -. t0

(* Timings of five back-to-back loops. *)
let sample () = List.init 5 (fun _ -> time_kernel ())

(* Factor that takes host seconds measured during [samples] to host
   seconds at the nominal speed. *)
let scale samples = (nominal_s /. List.fold_left Float.min infinity samples) ** exponent
