(* Chaos soak driver: deterministic fault-injection sweeps over the canned
   scenarios, with the kernel invariant audit running between slices.

     chaos list
     chaos soak --seeds 200 --from 0
     chaos soak --scenario rpc --kill-prob 0.1 --repro-out fail.txt
     chaos replay rpc 1337 -v
*)

open Cmdliner
module Chaos = Lotto_chaos

let plan_of ~kill_prob ~perturb_prob ~sleep_prob ~yield_prob ~max_kills =
  {
    Chaos.Plan.default with
    kill_prob;
    perturb_prob;
    sleep_prob;
    yield_prob;
    max_kills;
  }

let scenarios_of = function
  | None -> Ok Chaos.Scenarios.all
  | Some name -> (
      match Chaos.Scenarios.find name with
      | Some sc -> Ok [ sc ]
      | None -> Error (Printf.sprintf "unknown scenario %S (try: chaos list)" name))

let list_cmd =
  let run () =
    List.iter
      (fun sc -> Printf.printf "%s\n" sc.Chaos.Scenarios.name)
      Chaos.Scenarios.all;
    Printf.printf "%s (excluded from sweeps: demonstrates a reintroduced bug)\n"
      Chaos.Scenarios.rpc_buggy.Chaos.Scenarios.name
  in
  Cmd.v (Cmd.info "list" ~doc:"List available scenarios.") Term.(const run $ const ())

let soak_run scenario seeds from cpus kill_prob perturb_prob sleep_prob
    yield_prob max_kills no_audit repro_out =
  match scenarios_of scenario with
  | Error m -> `Error (false, m)
  | Ok _ when cpus < 1 -> `Error (true, "--cpus must be >= 1")
  | Ok scenarios ->
      let plan = plan_of ~kill_prob ~perturb_prob ~sleep_prob ~yield_prob ~max_kills in
      let report =
        Chaos.Soak.soak ~plan ~audit:(not no_audit) ~cpus ~scenarios
          ~seeds:(Chaos.Soak.seed_range ~from ~count:seeds)
          ()
      in
      print_string (Chaos.Soak.report_to_string report);
      (match (Chaos.Soak.first_failure report, repro_out) with
      | Some (sc, seed), Some path ->
          let oc = open_out path in
          Printf.fprintf oc "scenario=%s\nseed=%d\ncpus=%d\nplan=%s\n" sc seed
            cpus
            (Chaos.Plan.to_string plan);
          close_out oc;
          Printf.printf "repro written to %s\n" path
      | _ -> ());
      if report.Chaos.Soak.failures = [] then `Ok () else `Error (false, "soak failed")

let replay_run name seed verbose cpus kill_prob perturb_prob sleep_prob
    yield_prob max_kills =
  match Chaos.Scenarios.find name with
  | None -> `Error (false, Printf.sprintf "unknown scenario %S" name)
  | Some _ when cpus < 1 -> `Error (true, "--cpus must be >= 1")
  | Some sc ->
      let plan = plan_of ~kill_prob ~perturb_prob ~sleep_prob ~yield_prob ~max_kills in
      let o = Chaos.Soak.run_one ~plan ~cpus sc ~seed in
      Printf.printf "scenario=%s seed=%d ended_at=%d idle=%d slices=%d%s\n"
        o.Chaos.Soak.scenario o.Chaos.Soak.seed
        o.Chaos.Soak.summary.Lotto_sim.Types.ended_at
        o.Chaos.Soak.summary.Lotto_sim.Types.idle_ticks
        o.Chaos.Soak.summary.Lotto_sim.Types.slices
        (if o.Chaos.Soak.summary.Lotto_sim.Types.deadlocked then " (deadlocked)"
         else "");
      if verbose then
        List.iter
          (fun (t, f) -> Printf.printf "  [%d] fault: %s\n" t f)
          o.Chaos.Soak.faults;
      List.iter
        (fun (t, v) -> Printf.printf "  [%d] violation: %s\n" t v)
        o.Chaos.Soak.violations;
      List.iter
        (fun (n, e) -> Printf.printf "  thread %s failed: %s\n" n e)
        o.Chaos.Soak.thread_failures;
      if Chaos.Soak.failed o then `Error (false, "run failed") else `Ok ()

let scenario_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME" ~doc:"Restrict the sweep to one scenario.")

let seeds_arg =
  Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario.")

let from_arg =
  Arg.(value & opt int 0 & info [ "from" ] ~docv:"SEED" ~doc:"First seed.")

let cpus_arg =
  Arg.(
    value & opt int 1
    & info [ "cpus" ] ~docv:"N"
        ~doc:"Virtual CPUs per run (default 1). Each run's lottery has \
              one shard per CPU; with $(docv) > 1 fault injection also \
              exercises placement, rebalancing and stealing. Repro pairs \
              are per CPU count.")

let prob name default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"P" ~doc)

let kill_arg = prob "kill-prob" Chaos.Plan.default.Chaos.Plan.kill_prob "Kill probability per boundary."
let perturb_arg = prob "perturb-prob" Chaos.Plan.default.Chaos.Plan.perturb_prob "Wait-list perturbation probability."
let sleep_arg = prob "sleep-prob" Chaos.Plan.default.Chaos.Plan.sleep_prob "Extra-sleep probability per fault point."
let yield_arg = prob "yield-prob" Chaos.Plan.default.Chaos.Plan.yield_prob "Extra-yield probability per fault point."

let max_kills_arg =
  Arg.(
    value
    & opt int Chaos.Plan.default.Chaos.Plan.max_kills
    & info [ "max-kills" ] ~docv:"N" ~doc:"Kill budget per run.")

let no_audit_arg =
  Arg.(value & flag & info [ "no-audit" ] ~doc:"Skip the per-slice invariant audit.")

let repro_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-out" ] ~docv:"FILE"
        ~doc:"Write the first failing (scenario, seed) pair to FILE.")

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Sweep seeds over scenarios with fault injection and per-slice \
          invariant auditing; nonzero exit and a minimal repro on failure.")
    Term.(
      ret
        (const soak_run $ scenario_opt $ seeds_arg $ from_arg $ cpus_arg
       $ kill_arg $ perturb_arg $ sleep_arg $ yield_arg $ max_kills_arg
       $ no_audit_arg $ repro_out_arg))

let name_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO")

let seed_pos = Arg.(required & pos 1 (some int) None & info [] ~docv:"SEED")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the injected-fault log.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run one (scenario, seed) pair and print what happened.")
    Term.(
      ret
        (const replay_run $ name_pos $ seed_pos $ verbose_arg $ cpus_arg
       $ kill_arg $ perturb_arg $ sleep_arg $ yield_arg $ max_kills_arg))

let cmd =
  let doc = "deterministic chaos testing for the lottery-scheduling kernel" in
  Cmd.group (Cmd.info "chaos" ~doc) [ soak_cmd; replay_cmd; list_cmd ]

let () = exit (Cmd.eval cmd)
