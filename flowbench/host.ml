(* Host-speed calibration.

   The reference box is a 2-vCPU VM on a shared host. Its speed moves
   in phases of tens of seconds to minutes, by up to 40 %, and every op
   speeds up or slows down with it: two sets of ten runs of the same
   code, twenty minutes apart, differed by 13-47 % in every timing
   median. So a fixed kernel, which calls nothing from the program, is
   timed between the ops of a run, and the run's times are multiplied
   by [reference_s /. median kernel time]. They read as seconds at the
   kernel's reference speed. A change of host speed moves both the ops
   and the kernel, and cancels; a change to the program moves only the
   ops, and shows in full. The sweep's ops, which run on both cores,
   are the exception and stay unscaled (see Workloads.table1).

   The kernel does what the flow does most: it allocates short-lived
   arrays, lists and hash-table buckets, sorts, hashes and walks lists,
   in four rounds of 10 Ki numbers, about 25 ms. Allocation matters:
   the host's phases slow allocating code more than integer work in
   cache. In eight 12 s runs of s510 ATPG ops whose raw median op time
   spread by 19 % (IQR / median), the op time over this kernel's time
   spread by 2.3 %; over an allocation-free kernel's (heap sort and
   hash probes in 200 KB), by 12 %. *)

(* Near the kernel's time on the reference box (Intel Xeon, 2 vCPUs,
   OCaml 5.1.1, no flambda). It only fixes the unit. *)
let reference_s = 0.022

let round n =
  let s = ref 12345 in
  let a =
    Array.init n (fun _ ->
        s := ((!s * 1103515245) + 12345) land 0x3fffffff;
        !s)
  in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (x land 0xffff) i) a;
  let acc = ref 0 in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt h (i land 0xffff) with Some v -> acc := !acc + v | None -> ()
  done;
  !acc + List.fold_left ( + ) 0 (List.rev (List.init n (fun i -> i * 3)))

let kernel () =
  let acc = ref 0 in
  for _ = 1 to 4 do
    acc := !acc + round 10_000
  done;
  !acc

(* The times of [n] kernel runs. *)
let calibrate n =
  List.init n (fun _ ->
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (kernel ()));
      Unix.gettimeofday () -. t0)

(* The factor that turns a time measured while the kernel took [times]
   into reference seconds. *)
let scale times = reference_s /. Stats.median times
