(* smp-4cpu: the read-only use of the draw layer at scale.

   10^5 threads on four virtual CPUs under [~mode:Tree_mode ~shards:4],
   the configuration of the repository's scale and smp benches, simulated
   in one host thread. Every thread is funded from base with 1..100
   tickets. One thread in ten is bursty: it computes part of a quantum
   and then sleeps 1-3 virtual seconds, so shard mass drifts and the
   rebalancer migrates. The rest spin.

   Checks at the end of the run: the kernel and sharding audits are clean
   and no CPU ever idled. *)

open Lotto_sim
module Ls = Lotto_sched.Lottery_sched
module Rng = Lotto_prng.Rng
module Hdr = Lotto_obs.Hdr

let name = "smp-4cpu"

type size = { threads : int; horizon : Time.t }

let size = { threads = 100_000; horizon = Time.seconds 2_500 }
let small = { threads = 2_000; horizon = Time.seconds 60 }
let cpus = 4

type world = {
  kernel : Kernel.t;
  ls : Ls.t;
  lat : Hdr.t;  (** bursty wake-to-dispatch delay, µs *)
  wakes : int ref;
}

let build ?probe ~laps ~seed size =
  let master = Rng.create ~seed () in
  let ls =
    Ls.create ~mode:Ls.Tree_mode ~shards:cpus ~rng:(Rng.split master) ()
  in
  let param = Rng.split master in
  let kernel = Kernel.create ~cpus ~sched:(Probe.instrument probe ls) () in
  let base = Ls.base_currency ls in
  let lat = Outcome.latency_hdr () and wakes = ref 0 in
  let spin () =
    while true do
      Api.compute (Time.seconds 1000)
    done
  in
  let brng = Rng.split param in
  let bursty () =
    while true do
      Api.compute (Time.ms (Rng.int_in brng ~lo:10 ~hi:90));
      let d = Time.ms (Rng.int_in brng ~lo:1000 ~hi:3000) in
      let due = Api.now () + d in
      Api.sleep d;
      Hdr.record lat (Api.now () - due);
      incr wakes
    done
  in
  for i = 0 to size.threads - 1 do
    let body = if i mod 10 = 0 then bursty else spin in
    let th =
      Probe.time probe
        (fun p -> p.Probe.spawn)
        (fun () -> Kernel.spawn kernel ~name:(Printf.sprintf "t%d" i) body)
    in
    let amount = Rng.int_in param ~lo:1 ~hi:100 in
    Probe.time probe
      (fun p -> p.Probe.fund_thread)
      (fun () -> ignore (Ls.fund_thread ls th ~amount ~from:base));
    if i land 1023 = 1023 then Outcome.lap laps
  done;
  { kernel; ls; lat; wakes }

let setup ~seed size =
  let laps = Outcome.laps () in
  ignore (Sys.opaque_identity (build ~laps ~seed size));
  Outcome.finish laps

let run ?probe ~seed size =
  let laps = Outcome.laps () in
  let w = build ?probe ~laps ~seed size in
  let setup = Outcome.finish laps in
  Option.iter Probe.start_run probe;
  let summary, run_ns, chunks, gc =
    Outcome.run_kernel w.kernel ~until:size.horizon
  in
  let failures =
    Outcome.thread_failures w.kernel
    @ Kernel.check_invariants w.kernel
    @ Ls.check_sharding w.ls
    @
    if summary.idle_ticks <> 0 then
      [ Printf.sprintf "%d idle ticks on a saturated machine" summary.idle_ticks ]
    else []
  in
  {
    Outcome.setup;
    run_ns;
    chunks;
    counts =
      Outcome.counts_of_sched ~requests:!(w.wakes) ~slices:summary.slices w.ls;
    sim_p99_ms = Outcome.p99_ms w.lat;
    gc;
    failures;
  }

let reference = None
