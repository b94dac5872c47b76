(* Quickstart: proportional-share CPU control in a dozen lines.

   Three compute-bound threads are funded 3:2:1 from the base currency; a
   minute of virtual time later their CPU consumption matches the split.
   Also replays Figure 1's deterministic list lottery, and watches the run
   through the observability bus: a metrics registry summarising wins,
   quanta and latency percentiles, and a trace recorder holding the typed
   event stream.

   Run with: dune exec examples/quickstart.exe *)

open Core

let () =
  (* Figure 1: five clients holding 10, 2, 5, 1, 2 tickets; the fifteenth
     of the twenty tickets is selected, so the third client wins. *)
  let lottery = List_lottery.create ~move_to_front:false () in
  let handles =
    List.map
      (fun (name, tickets) ->
        List_lottery.add lottery ~client:name ~weight:tickets)
      (* the list lottery prepends, so insert in reverse to keep the
         paper's left-to-right order *)
      (List.rev [ ("c1", 10); ("c2", 2); ("c3", 5); ("c4", 1); ("c5", 2) ])
  in
  ignore handles;
  (match List_lottery.draw_with_value lottery ~winning:15 with
  | Some h ->
      Printf.printf "Figure 1 lottery: winning ticket 15 of 20 -> client %s\n"
        (List_lottery.client h)
  | None -> assert false);

  (* Proportional-share scheduling. *)
  let rng = Rng.create ~seed:42 () in
  let ls = Lottery_sched.create ~rng () in
  let kernel = Kernel.create ~sched:(Lottery_sched.sched ls) () in
  let spin name =
    Kernel.spawn kernel ~name (fun () ->
        while true do
          Api.compute (Time.ms 1)
        done)
  in
  let gold = spin "gold" and silver = spin "silver" and bronze = spin "bronze" in
  let base = Lottery_sched.base_currency ls in
  ignore (Lottery_sched.fund_thread ls gold ~amount:300 ~from:base);
  ignore (Lottery_sched.fund_thread ls silver ~amount:200 ~from:base);
  ignore (Lottery_sched.fund_thread ls bronze ~amount:100 ~from:base);

  (* observers: both subscribe to the kernel's event bus and each sees the
     full stream *)
  let metrics = Obs.Metrics.create () in
  Obs.Metrics.attach metrics (Kernel.bus kernel);
  let recorder = Obs.Recorder.create ~capacity:4096 () in
  Obs.Recorder.attach recorder (Kernel.bus kernel);

  ignore (Kernel.run kernel ~until:(Time.seconds 60));
  let total =
    List.fold_left (fun acc th -> acc + Kernel.cpu_time th) 0 [ gold; silver; bronze ]
  in
  Printf.printf "\n60 virtual seconds with a 3:2:1 allocation:\n";
  List.iter
    (fun th ->
      Printf.printf "  %-7s %4.1f%% of the CPU\n" (Kernel.thread_name th)
        (100. *. float_of_int (Kernel.cpu_time th) /. float_of_int total))
    [ gold; silver; bronze ];

  let entitled =
    List.map
      (fun th -> (Kernel.thread_id th, Lottery_sched.thread_entitlement ls th))
      [ gold; silver; bronze ]
  in
  Printf.printf "\n%s" (Obs.Metrics.summary ~entitled metrics);
  Printf.printf
    "\ntrace recorder captured %d events (newest %d kept); export with\n\
     Obs.Recorder.to_chrome_json for chrome://tracing, or run\n\
     lottosim --trace out.json on a scenario file\n"
    (Obs.Recorder.seen recorder)
    (Obs.Recorder.length recorder)
