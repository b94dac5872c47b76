(* What one simulation run of a workload reports. *)

type tenant = { name : string; arrivals : int; served : int; shed : int }

(* Simulated counts. They depend only on the workload and its seed, so a
   traced run must reproduce the untraced run's counts exactly. *)
type counts = {
  slices : int;
  draws : int;
  migrations : int;
  steals : int;
  list_comparisons : int;  (** 0 for tree-mode draws *)
  scoped_updates : int;
  full_refreshes : int;
  mutations : int;  (** funding mutations made by thread bodies *)
  io_slots : int;  (** I/O device slots served *)
  requests : int;  (** arrivals, or wake-ups of the latency-class threads *)
  tenants : tenant list;
}

(* The counts a whole-program entry point reports too. *)
let observable c = (c.slices, c.requests, c.tenants)

type gc = { minor_words : float; promoted_words : float; major_collections : int }

type t = {
  setup : int array;  (** host time to build the world, in chunks *)
  run_ns : int;  (** host time of [Kernel.run] (or [Service.run]) *)
  chunks : int array;
      (** [run_ns] split at every [chunk_selects]-th scheduling decision *)
  counts : counts;
  sim_p99_ms : float;  (** p99 latency of the latency class, virtual ms *)
  gc : gc;  (** allocation during the run *)
  failures : string list;  (** correctness-check findings; [] = pass *)
}

let counts_of_sched ?(mutations = 0) ?(io_slots = 0) ?(tenants = [])
    ~requests ~slices ls =
  let module Ls = Lotto_sched.Lottery_sched in
  {
    slices;
    draws = Ls.draws ls;
    migrations = Ls.migrations ls;
    steals = Ls.steals ls;
    list_comparisons = Option.value (Ls.list_comparisons ls) ~default:0;
    scoped_updates = Ls.scoped_weight_updates ls;
    full_refreshes = Ls.full_refreshes ls;
    mutations;
    io_slots;
    requests;
    tenants;
  }

(* Runs [f] on an empty minor heap and returns its result with its host
   time and allocation. The counters are read after emptying the minor
   heap again, since the runtime only totals them at minor collections.
   Minor words repeat exactly for a seed; promoted words and major
   collections also depend on the heap the process built before [f]. *)
let measure f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = Probe.now () in
  let r = f () in
  let t1 = Probe.now () in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  ( r,
    t1 - t0,
    {
      minor_words = g1.minor_words -. g0.minor_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      major_collections = g1.major_collections - g0.major_collections;
    } )

(* Host-clock laps: [lap] closes the current chunk of work. *)
type laps = { mutable buf : int array; mutable n : int; mutable last : int }

let laps () = { buf = Array.make 1024 0; n = 0; last = Probe.now () }

let lap l =
  let t = Probe.now () in
  if l.n = Array.length l.buf then l.buf <- Array.append l.buf (Array.make l.n 0);
  l.buf.(l.n) <- t - l.last;
  l.n <- l.n + 1;
  l.last <- t

let finish l =
  lap l;
  Array.sub l.buf 0 l.n

let chunk_selects = 1024

(* [Kernel.run k ~until] under [measure], with a lap at every
   [chunk_selects]-th scheduling decision (through the kernel's pre-select
   hook: one call and an increment per decision). Chunk [i] covers the
   same simulated work in every run of a seed, traced or not. *)
let run_kernel k ~until =
  let l = laps () and selects = ref 0 in
  Lotto_sim.Kernel.set_pre_select k
    (Some
       (fun () ->
         incr selects;
         if !selects land (chunk_selects - 1) = 0 then lap l));
  let summary, run_ns, gc =
    measure (fun () ->
        l.last <- Probe.now ();
        Lotto_sim.Kernel.run k ~until)
  in
  Lotto_sim.Kernel.set_pre_select k None;
  (summary, run_ns, finish l, gc)

(* Host time of one piece of work pieced together from the fastest
   instance of each of its chunks over several repetitions. A shared
   host can switch every few seconds between a fast mode and a slower one
   (up to ~1.8x on a 2-vCPU Xeon VM whose core neighbours come and go); a
   chunk lasts milliseconds, so its fastest instance is its cost without
   the slowdown, and the sum is steady where a median of whole
   repetitions is not. *)
let best_ns = function
  | [] -> 0
  | first :: _ as reps ->
      let n = Array.length first in
      if List.exists (fun c -> Array.length c <> n) reps then
        invalid_arg "Outcome.best_ns: repetitions chunked differently";
      let total = ref 0 in
      for i = 0 to n - 1 do
        total := !total + List.fold_left (fun acc c -> min acc c.(i)) max_int reps
      done;
      !total

(* The samples' p99 in virtual ms ([0.] when there are none). *)
let p99_ms hdr =
  if Lotto_obs.Hdr.count hdr = 0 then 0.
  else Lotto_obs.Hdr.percentile hdr 99. /. 1000.

(* A histogram of virtual-time latencies in µs: 2^-7 relative error, up to
   about 19 virtual hours. *)
let latency_hdr () = Lotto_obs.Hdr.create ~sub_bits:7 ~max_value:(1 lsl 36) ()

(* Threads whose bodies raised, as findings. *)
let thread_failures kernel =
  List.map
    (fun (th, e) ->
      Printf.sprintf "%s failed: %s" (Lotto_sim.Kernel.thread_name th)
        (Printexc.to_string e))
    (Lotto_sim.Kernel.failures kernel)

(* Chi-square finding for observed counts against unnormalised weights. *)
let chi_square ~what ~observed ~weights =
  if Lotto_stats.Chi_square.goodness_of_fit ~observed ~weights () then []
  else
    [
      Printf.sprintf "%s: chi-square rejects observed [%s] against weights [%s]"
        what
        (String.concat " " (Array.to_list (Array.map string_of_int observed)))
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%g") weights)));
    ]
