(* Host-time probes for the traced run.

   Every timing comes from [clock_gettime(CLOCK_MONOTONIC)] through
   bechamel's noalloc stub, in nanoseconds. The probes sit in the
   benchmark's own code, around the calls it makes into each layer: the
   scheduler record handed to [Kernel.create] is wrapped field by field,
   the lottery's draw hook splits [select] into valuation and pick, and
   the workloads time their own funding and I/O calls through [time]. *)

open Lotto_sim

let now () = Int64.to_int (Monotonic_clock.now ())

type timer = { mutable ns : int; mutable calls : int }

let timer () = { ns = 0; calls = 0 }

let stop tm t0 =
  tm.ns <- tm.ns + (now () - t0);
  tm.calls <- tm.calls + 1

let clear tm =
  tm.ns <- 0;
  tm.calls <- 0

type t = {
  select_lat : Lotto_obs.Hdr.t;  (** whole [select] calls, ns *)
  valuation : timer;  (** [select] entry to the draw hook *)
  pick : timer;  (** draw hook to [select] return *)
  account : timer;
  ready : timer;
  unready : timer;
  transfer : timer;  (** donate, revoke and revoke_from *)
  other : timer;  (** attach, detach and pick_waiter *)
  mutation : timer;  (** funding mutations made by thread bodies *)
  io_submit : timer;
  io_serve : timer;
  spawn : timer;  (** setup: [Kernel.spawn], scheduler attach included *)
  fund_thread : timer;  (** setup: [Lottery_sched.fund_thread] *)
  mutable hook_at : int;  (** clock at the last draw hook; 0 = none yet *)
  mutable runnable_sum : int;  (** sum of the hook's [~runnable] *)
}

let create () =
  {
    select_lat = Lotto_obs.Hdr.create ~sub_bits:7 ~max_value:(1 lsl 36) ();
    valuation = timer ();
    pick = timer ();
    account = timer ();
    ready = timer ();
    unready = timer ();
    transfer = timer ();
    other = timer ();
    mutation = timer ();
    io_submit = timer ();
    io_serve = timer ();
    spawn = timer ();
    fund_thread = timer ();
    hook_at = 0;
    runnable_sum = 0;
  }

(* Forget whatever setup recorded in the run-phase probes, so that they
   cover exactly the [Kernel.run] interval. *)
let start_run p =
  Lotto_obs.Hdr.reset p.select_lat;
  List.iter clear
    [
      p.valuation; p.pick; p.account; p.ready; p.unready; p.transfer; p.other;
      p.mutation; p.io_submit; p.io_serve;
    ];
  p.runnable_sum <- 0

(* Host time of every probed call made while the kernel ran. *)
let attributed_ns p =
  List.fold_left
    (fun acc tm -> acc + tm.ns)
    0
    [
      p.valuation; p.pick; p.account; p.ready; p.unready; p.transfer; p.other;
      p.mutation; p.io_submit; p.io_serve;
    ]

(* [time probe tm f] runs [f ()], charging its host time to [tm] when the
   run is traced, as [calls] calls. *)
let time ?(calls = 1) p tm f =
  match p with
  | None -> f ()
  | Some p ->
      let t0 = now () in
      let r = f () in
      let tm = tm p in
      tm.ns <- tm.ns + (now () - t0);
      tm.calls <- tm.calls + calls;
      r

let draw_hook p ~runnable ~total_weight:_ =
  p.hook_at <- now ();
  p.runnable_sum <- p.runnable_sum + runnable

let wrap p (s : Types.sched) : Types.sched =
  {
    s with
    attach =
      (fun th ->
        let t0 = now () in
        s.attach th;
        stop p.other t0);
    detach =
      (fun th ->
        let t0 = now () in
        s.detach th;
        stop p.other t0);
    ready =
      (fun th ->
        let t0 = now () in
        s.ready th;
        stop p.ready t0);
    unready =
      (fun th ->
        let t0 = now () in
        s.unready th;
        stop p.unready t0);
    select =
      (fun ~cpu ->
        p.hook_at <- 0;
        let t0 = now () in
        let r = s.select ~cpu in
        let t1 = now () in
        Lotto_obs.Hdr.record p.select_lat (t1 - t0);
        p.valuation.calls <- p.valuation.calls + 1;
        if p.hook_at = 0 then p.valuation.ns <- p.valuation.ns + (t1 - t0)
        else begin
          p.valuation.ns <- p.valuation.ns + (p.hook_at - t0);
          p.pick.ns <- p.pick.ns + (t1 - p.hook_at);
          p.pick.calls <- p.pick.calls + 1
        end;
        r);
    account =
      (fun th ~used ~quantum ~blocked ->
        let t0 = now () in
        s.account th ~used ~quantum ~blocked;
        stop p.account t0);
    donate =
      (fun ~src ~dst ->
        let t0 = now () in
        s.donate ~src ~dst;
        stop p.transfer t0);
    revoke =
      (fun ~src ->
        let t0 = now () in
        s.revoke ~src;
        stop p.transfer t0);
    revoke_from =
      (fun ~src ~dst ->
        let t0 = now () in
        s.revoke_from ~src ~dst;
        stop p.transfer t0);
    pick_waiter =
      (fun ws ->
        let t0 = now () in
        let r = s.pick_waiter ws in
        stop p.other t0;
        r);
  }

(* The scheduler record the kernel gets, and the draw hook, for a run that
   is traced when [probe] is given. *)
let instrument probe ls =
  let s = Lotto_sched.Lottery_sched.sched ls in
  match probe with
  | None -> s
  | Some p ->
      Lotto_sched.Lottery_sched.set_draw_hook ls (Some (draw_hook p));
      wrap p s
