(* service-3tenant: ports, ticket transfers, block/wake and the I/O
   lottery, with cheap draws over ~200 clients.

   Three tenants share one CPU and the I/O device, with shares
   600:300:100, and every tenant submits one I/O request per served
   request:
   - gold offers Poisson arrivals above its entitlement, [Reject_new];
   - silver offers MMPP bursts whose calm rate is still above its
     entitlement;
   - flood offers 10x its entitlement, [Drop_oldest].
   Every tenant stays backlogged, so worker CPU must follow 6:3:1.

   [Service.run] is the whole program. The traced run needs the
   scheduler record before [Kernel.create] sees it, so [run] builds the
   same world from [Pool]/[Client]/[Slo]/[Io_bandwidth] exactly as
   [Service.run] wires them; the benchmark checks that both produce the
   same counts for a seed. *)

open Lotto_sim
module Ls = Lotto_sched.Lottery_sched
module Io = Lotto_res.Io_bandwidth
module Rng = Lotto_prng.Rng
module Metrics = Lotto_obs.Metrics
module Svc = Lotto_service.Service
module Tenant = Lotto_service.Tenant
module Arrivals = Lotto_service.Arrivals
module Pool = Lotto_service.Pool
module Client = Lotto_service.Client
module Slo = Lotto_service.Slo

let name = "service-3tenant"

type size = { horizon : Time.t }

let size = { horizon = Time.seconds 300 }
let small = { horizon = Time.seconds 20 }

let tenants =
  [
    Tenant.spec ~share:600 ~arrivals:(Arrivals.Poisson 150.) ~io_per_req:1 "gold";
    Tenant.spec ~share:300
      ~arrivals:
        (Arrivals.Mmpp
           { calm_per_s = 70.; burst_per_s = 200.; calm_ms = 2000.; burst_ms = 500. })
      ~io_per_req:1 "silver";
    Tenant.spec ~share:100 ~arrivals:(Arrivals.Poisson 200.)
      ~shed:Types.Drop_oldest ~io_per_req:1 "flood";
  ]

let config ~seed size =
  Svc.config ~seed ~horizon:size.horizon ~io_slot:(Time.ms 2) tenants

let chi_square_failure = function
  | Some p when p >= 0.001 -> []
  | Some p -> [ Printf.sprintf "worker CPU against 6:3:1: chi-square p = %g" p ]
  | None -> [ "worker CPU against 6:3:1: chi-square undefined" ]

let tenant_counts slo =
  List.map
    (fun (ten : Slo.tenant) ->
      {
        Outcome.name = ten.name;
        arrivals = ten.arrivals;
        served = ten.served;
        shed = ten.shed;
      })
    (Slo.tenants slo)

type runtime = { spec : Tenant.spec; pool : Pool.t; client : Client.t }

type world = {
  kernel : Kernel.t;
  ls : Ls.t;
  metrics : Metrics.t;
  slo : Slo.t;
  io : Io.t;
  runtimes : runtime list;
  mutable slots : int;
}

(* [Service.run]'s construction, step for step and in the same order, so
   that every random stream is consumed identically. *)
let build ?probe ~laps:_ ~seed size =
  let cfg = config ~seed size in
  let rng = Rng.create ~seed:cfg.seed () in
  let io_rng = Rng.split rng in
  let tenant_rngs = List.map (fun _ -> Rng.split rng) cfg.tenants in
  let ls = Ls.create ~shards:0 ~rng () in
  let kernel =
    Kernel.create ~quantum:cfg.quantum ~cpus:1 ~sched:(Probe.instrument probe ls) ()
  in
  let metrics = Metrics.create () in
  Metrics.attach metrics (Kernel.bus kernel);
  let slo = Slo.create () in
  let io = Io.create ~funding:(Ls.funding ls) ~rng:io_rng () in
  let fund th ~amount ~from =
    Probe.time probe
      (fun p -> p.Probe.fund_thread)
      (fun () -> ignore (Ls.fund_thread ls th ~amount ~from))
  in
  let spawned ~threads f =
    Probe.time ~calls:threads probe (fun p -> p.Probe.spawn) f
  in
  let runtimes =
    List.map2
      (fun (spec : Tenant.spec) trng ->
        let cur = Ls.make_currency ls spec.name in
        ignore
          (Ls.fund_currency ls ~target:cur ~amount:spec.share
             ~from:(Ls.base_currency ls));
        let io_client = Io.add_funded_client io ~name:spec.name ~currency:cur () in
        let ten = Slo.tenant slo spec.name in
        let on_served () =
          ten.io_submitted <- ten.io_submitted + spec.io_per_req;
          match probe with
          | None -> Io.submit io io_client ~requests:spec.io_per_req
          | Some p ->
              let t0 = Probe.now () in
              Io.submit io io_client ~requests:spec.io_per_req;
              Probe.stop p.io_submit t0
        in
        let pool =
          spawned ~threads:spec.workers (fun () ->
              Pool.spawn kernel ~spec ~on_served ())
        in
        let client =
          spawned ~threads:(spec.stubs + 1) (fun () ->
              Client.spawn kernel ~spec ~rng:trng ~slo ~port:(Pool.port pool))
        in
        List.iter (fun w -> fund w ~amount:100 ~from:cur) (Pool.workers pool);
        List.iter (fun s -> fund s ~amount:1 ~from:cur) (Client.stubs client);
        fund (Client.generator client) ~amount:1 ~from:cur;
        { spec; pool; client })
      cfg.tenants tenant_rngs
  in
  let slot = Option.get cfg.io_slot in
  let w = { kernel; ls; metrics; slo; io; runtimes; slots = 0 } in
  let device () =
    while true do
      Api.sleep slot;
      w.slots <- w.slots + 1;
      match probe with
      | None -> ignore (Io.serve_slot io)
      | Some p ->
          let t0 = Probe.now () in
          ignore (Io.serve_slot io);
          Probe.stop p.io_serve t0
    done
  in
  let dev =
    spawned ~threads:1 (fun () -> Kernel.spawn kernel ~name:"io.device" device)
  in
  fund dev ~amount:50 ~from:(Ls.base_currency ls);
  w

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
  let entitled =
    List.concat_map
      (fun rt ->
        let weight = float_of_int rt.spec.share /. float_of_int rt.spec.workers in
        List.map (fun th -> (Kernel.thread_id th, weight)) (Pool.workers rt.pool))
      w.runtimes
  in
  let _, p = Metrics.fairness w.metrics ~entitled in
  let failures =
    Outcome.thread_failures w.kernel
    @ List.concat_map
      (fun rt ->
        let name = rt.spec.name in
        (if Client.accounted rt.client then []
         else [ name ^ ": arrivals <> served + shed + backlog + holding" ])
        @
        if (Slo.tenant w.slo name).shed = Pool.shed_count rt.pool then []
        else [ name ^ ": client-observed sheds differ from the port's count" ])
      w.runtimes
    @ chi_square_failure p
  in
  let tenants = tenant_counts w.slo in
  {
    Outcome.setup;
    run_ns;
    chunks;
    counts =
      Outcome.counts_of_sched ~io_slots:w.slots ~tenants
        ~requests:(List.fold_left (fun acc t -> acc + t.Outcome.arrivals) 0 tenants)
        ~slices:summary.slices w.ls;
    sim_p99_ms = Slo.percentile_ms (Slo.tenant w.slo "gold") 99.;
    gc;
    failures;
  }

(* The whole program: [Service.run] on the same configuration. Its report
   carries slices and per-tenant counts, not the scheduler's counters, so
   only those are compared with the composed world. *)
let service_run ~seed size =
  let report, run_ns, gc = Outcome.measure (fun () -> Svc.run (config ~seed size)) in
  let tenants =
    List.map
      (fun (tr : Svc.tenant_report) ->
        {
          Outcome.name = tr.t_name;
          arrivals = tr.arrivals;
          served = tr.served;
          shed = tr.shed;
        })
      report.tenants
  in
  let failures =
    (if report.accounted then [] else [ "arrivals <> served + shed + in flight" ])
    @ (if report.shed_consistent then []
       else [ "client-observed sheds differ from the ports' counts" ])
    @ chi_square_failure report.chi_square_p
  in
  {
    Outcome.setup = [||];
    run_ns;
    chunks = [||];
    counts =
      {
        Outcome.slices = report.slices;
        draws = 0;
        migrations = 0;
        steals = 0;
        list_comparisons = 0;
        scoped_updates = 0;
        full_refreshes = 0;
        mutations = 0;
        io_slots = 0;
        requests = List.fold_left (fun acc t -> acc + t.Outcome.arrivals) 0 tenants;
        tenants;
      };
    sim_p99_ms = (Svc.find report "gold").p99_ms;
    gc;
    failures;
  }

let reference = Some service_run
