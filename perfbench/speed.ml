(* The machine's current speed, measured with a fixed calibration kernel.

   The machines this benchmark runs on share their cores, and their speed
   drifts by up to half over tens of seconds to minutes: a fixed loop's
   CPU time tracks its wall time through such a shift, so it is the core
   that slows, not the process that waits. A slow stretch can cover a
   whole run, which no minimum or median over the run's own passes
   removes. So every timed pass is bracketed and interleaved with runs of
   a kernel of fixed work, and its times are divided by the pass's speed
   factor: the median kernel time during the pass over [reference_s].

   The kernel builds, reverses and folds short lists, which is the kind of
   work the program does (allocation, pointer chasing, branches); of the
   kernels tried it tracked Theorem 1's slowdowns closest (a plain
   arithmetic loop or a cache-missing array walk tracked them two to
   three times worse). Its lists die young, so it does no major-heap
   work and its time does not depend on the program's heap.

   Samples run in the calling domain and so follow that domain's core.
   Work done in another domain, such as the serve workloads' server, is
   scaled by the client's core, which is why serve-cold, whose time is
   all server-side embeds, stays too unsteady to gate. *)

let now = Unix.gettimeofday

let kernel () =
  let acc = ref 0 in
  for r = 1 to 1000 do
    let l = List.init 200 (fun i -> (i, r)) in
    acc := !acc + List.fold_left (fun a (x, y) -> a + (x * y)) 0 (List.rev l)
  done;
  !acc

(* The kernel's time on the 2-vCPU x86-64 machine the benchmark was tuned
   on, at its usual speed: scaled figures read as seconds there. *)
let reference_s = 0.0021

(* One sample: the fastest of three kernel runs, which sheds an interrupt
   or a preemption that hits one of them. *)
let kernel_s () =
  let one () =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    now () -. t0
  in
  Float.min (one ()) (Float.min (one ()) (one ()))

let active = ref false
let samples = ref []
let spent = ref 0.0

(* When set, [tick] collects the heap: the heap high-water mark is then
   set by the work itself and not by how far the collector lags. *)
let collect = ref false

let pieces = ref 0

let sample () =
  let t0 = now () in
  samples := kernel_s () :: !samples;
  spent := !spent +. (now () -. t0)

(* Called between the timed pieces of a pass: samples the speed at every
   [every]-th piece inside [measure]. The schedule counts pieces, never
   the clock, so that a run's allocations, and with them its heap
   high-water mark, do not depend on how fast the machine ran. *)
let tick ?(every = 1) () =
  if !collect then Gc.full_major ();
  if !active then begin
    if !pieces mod every = 0 then sample ();
    incr pieces
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Run [f] with the speed sampled before, after and at its [tick]s.
   Returns [f]'s result, its wall time without the kernel runs, and the
   speed factor: how many times slower than the reference the machine
   ran (1.2 means 20 % slower). *)
let measure f =
  samples := [];
  pieces := 0;
  sample ();
  spent := 0.0;
  active := true;
  let t0 = now () in
  let r = Fun.protect ~finally:(fun () -> active := false) f in
  let wall = now () -. t0 -. !spent in
  sample ();
  (r, wall, median !samples /. reference_s)
