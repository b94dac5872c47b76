(* churn-1cpu: the write-heavy use of valuation and the List-mode draw.

   About 1.7k threads on one CPU under the default scheduler
   ([Lottery_sched.create ~rng ()], List mode), funded through a
   two-level currency tree:
   - static group currencies, each funding compute-bound spinners;
   - an interactive currency whose threads compute part of a quantum and
     then sleep (block/wake and compensation tickets);
   - a Monte-Carlo currency whose threads re-set their own ticket every
     quantum across six orders of magnitude, like fig6's inflation;
   - a manager thread in base that re-funds the interactive and
     Monte-Carlo currencies every virtual second.

   Check: the spinners' CPU per group passes chi-square against the
   groups' funding (the manager never touches the groups). *)

open Lotto_sim
module Ls = Lotto_sched.Lottery_sched
module Rng = Lotto_prng.Rng
module Hdr = Lotto_obs.Hdr

let name = "churn-1cpu"

type size = {
  groups : int;
  spinners : int;  (** per group *)
  interactive : int;
  mc : int;
  horizon : Time.t;
}

let size =
  {
    groups = 8;
    spinners = 200;
    interactive = 64;
    mc = 64;
    horizon = Time.seconds 8_000;
  }

let small =
  { groups = 4; spinners = 6; interactive = 6; mc = 6; horizon = Time.seconds 120 }

let quantum = Time.ms 100

type world = {
  kernel : Kernel.t;
  ls : Ls.t;
  funding : int array;  (** per group *)
  spinners : Types.thread list array;  (** per group *)
  lat : Hdr.t;  (** interactive wake-to-dispatch delay, µs *)
  wakes : int ref;
  mutations : int ref;
}

let build ?probe ~laps:_ ~seed size =
  let master = Rng.create ~seed () in
  let ls = Ls.create ~rng:(Rng.split master) () in
  let param = Rng.split master in
  let kernel = Kernel.create ~quantum ~sched:(Probe.instrument probe ls) () in
  let base = Ls.base_currency ls in
  let spawn name body =
    Probe.time probe (fun p -> p.Probe.spawn) (fun () -> Kernel.spawn kernel ~name body)
  in
  let fund th ~amount ~from =
    Probe.time probe
      (fun p -> p.Probe.fund_thread)
      (fun () -> Ls.fund_thread ls th ~amount ~from)
  in
  let currency name amount =
    let cur = Ls.make_currency ls name in
    (cur, Ls.fund_currency ls ~target:cur ~amount ~from:base)
  in
  let lat = Outcome.latency_hdr () and wakes = ref 0 and mutations = ref 0 in
  let mutate tk amount =
    incr mutations;
    match probe with
    | None -> Ls.set_ticket_amount ls tk amount
    | Some p ->
        let t0 = Probe.now () in
        Ls.set_ticket_amount ls tk amount;
        Probe.stop p.Probe.mutation t0
  in
  let spin () =
    while true do
      Api.compute (Time.seconds 1000)
    done
  in
  let funding = Array.init size.groups (fun g -> 100 * (g + 1)) in
  let spinners =
    Array.mapi
      (fun g amount ->
        let cur, _ = currency (Printf.sprintf "g%d" g) amount in
        List.init size.spinners (fun i ->
            let th = spawn (Printf.sprintf "g%d.s%d" g i) spin in
            ignore (fund th ~amount:(Rng.int_in param ~lo:1 ~hi:100) ~from:cur);
            th))
      funding
  in
  let icur, iback = currency "interactive" 3000 in
  let irng = Rng.split param in
  let interactive () =
    while true do
      Api.compute (Time.ms (Rng.int_in irng ~lo:1 ~hi:10));
      let d = Time.ms (Rng.int_in irng ~lo:1000 ~hi:3000) in
      let due = Api.now () + d in
      Api.sleep d;
      Hdr.record lat (Api.now () - due);
      incr wakes
    done
  in
  for i = 0 to size.interactive - 1 do
    let th = spawn (Printf.sprintf "int%d" i) interactive in
    ignore (fund th ~amount:100 ~from:icur)
  done;
  let mcur, mback = currency "mc" 3000 in
  let mrng = Rng.split param in
  let tickets = Array.make size.mc None in
  let monte_carlo i () =
    let tk = Option.get tickets.(i) in
    while true do
      Api.compute quantum;
      mutate tk (int_of_float (10. ** (6. *. Rng.float_unit mrng)))
    done
  in
  for i = 0 to size.mc - 1 do
    let th = spawn (Printf.sprintf "mc%d" i) (monte_carlo i) in
    tickets.(i) <- Some (fund th ~amount:1000 ~from:mcur)
  done;
  let manager () =
    while true do
      Api.sleep (Time.seconds 1);
      mutate mback (Rng.int_in param ~lo:1000 ~hi:5000);
      mutate iback (Rng.int_in param ~lo:1000 ~hi:5000)
    done
  in
  ignore (fund (spawn "manager" manager) ~amount:100 ~from:base);
  { kernel; ls; funding; spinners; lat; wakes; mutations }

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
  let observed =
    Array.map
      (List.fold_left (fun acc th -> acc + (Kernel.cpu_time th / quantum)) 0)
      w.spinners
  in
  let failures =
    Outcome.thread_failures w.kernel
    @ (if summary.deadlocked then [ "deadlocked" ] else [])
    @ Outcome.chi_square ~what:"spinner CPU per group" ~observed
        ~weights:(Array.map float_of_int w.funding)
  in
  {
    Outcome.setup;
    run_ns;
    chunks;
    counts =
      Outcome.counts_of_sched ~mutations:!(w.mutations) ~requests:!(w.wakes)
        ~slices:summary.slices w.ls;
    sim_p99_ms = Outcome.p99_ms w.lat;
    gc;
    failures;
  }

(* The whole program is the composed world itself. *)
let reference = None
