(* The benchmark command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S host seconds, checks every run, and
   prints as its last stdout line one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. With [--trace 0] the
   metrics are the end-to-end ones, measured with no probes installed;
   with [--trace 1] they are the per-layer ones, from traced runs that
   alternate with untraced runs of the same seed. *)

open Lotto_perfbench

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" Workload.names);
  exit 2

let parse () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Workload.find v;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        int_arg seed v;
        go rest
    | "--seconds" :: v :: rest ->
        int_arg seconds v;
        go rest
    | "--trace" :: v :: rest ->
        int_arg trace v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace
    when seconds >= 1 && (trace = 0 || trace = 1) ->
      (w, seed, seconds, trace = 1)
  | _ -> usage ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let seconds_of_ns ns = fi ns /. 1e9

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let check tally what failures =
  tally.attempted <- tally.attempted + 1;
  if failures <> [] then begin
    tally.failed <- tally.failed + 1;
    tally.notes <- tally.notes @ List.map (fun f -> what ^ ": " ^ f) failures
  end

let same_counts ~what (expected : Outcome.counts) (got : Outcome.t) =
  if got.counts = expected then []
  else [ what ^ " counts differ from the first untraced run of this seed" ]

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The end-to-end run: the world, no probes, repeated on the same seed
   until the time is up (at least three times). Host times come from the
   fastest instance of each chunk over the repetitions
   ([Outcome.best_ns]); the simulated figures must repeat exactly. Peak
   heap is read after the first repetition, so it depends only on the
   seed. *)
let end_to_end (module W : Workload.S) ~seed ~seconds tally =
  let deadline = Probe.now () + (seconds * 1_000_000_000) in
  let run () =
    Gc.compact ();
    W.run ~seed W.size
  in
  let first = run () in
  check tally "run 1" first.failures;
  let peak_heap_mb = peak_heap_mb () in
  (* A world that builds in under 2% of its run time gets four extra
     set-ups after each repetition, so that its set-up samples are spread
     over the whole run like the repetitions are. *)
  let cheap = Array.fold_left ( + ) 0 first.setup * 50 < first.run_ns in
  let setups = ref [ first.setup ] in
  let extra_setups () =
    if cheap then
      for _ = 1 to 4 do
        Gc.compact ();
        setups := W.setup ~seed W.size :: !setups
      done
  in
  extra_setups ();
  let runs = ref [ first ] in
  while List.length !runs < 3 || Probe.now () < deadline do
    let o = run () in
    check tally
      (Printf.sprintf "run %d" (List.length !runs + 1))
      (o.failures @ same_counts ~what:"repeated run" first.counts o);
    runs := o :: !runs;
    setups := o.setup :: !setups;
    extra_setups ()
  done;
  while List.length !setups < 11 do
    Gc.compact ();
    setups := W.setup ~seed W.size :: !setups
  done;
  let runs = !runs in
  let best =
    seconds_of_ns (Outcome.best_ns (List.map (fun (o : Outcome.t) -> o.chunks) runs))
  in
  let median_run =
    median (List.map (fun (o : Outcome.t) -> seconds_of_ns o.run_ns) runs)
  in
  Printf.printf
    "%s seed %d: %d runs of %d slices and %d requests; run %.3f s fastest \
     chunks, %.3f s median; %d set-ups\n"
    W.name seed (List.length runs) first.counts.slices first.counts.requests
    best median_run (List.length !setups);
  [
    ("slices_per_s", "1/s", fi first.counts.slices /. best);
    ("requests_per_s", "1/s", fi first.counts.requests /. best);
    ("setup_s", "s", seconds_of_ns (Outcome.best_ns !setups));
    ("peak_heap_mb", "MiB", peak_heap_mb);
    ("sim_p99_ms", "sim_ms", first.sim_p99_ms);
  ]

let tenant_names = [ "gold"; "silver"; "flood" ]

(* Per-layer figures of one traced run. Shares are of the traced run's
   [Kernel.run] host time; the kernel's is what no probe covered. *)
let layers (p : Probe.t) (o : Outcome.t) =
  let c = o.counts in
  let run = fi o.run_ns and slices = fi c.slices in
  let attributed = fi (Probe.attributed_ns p) in
  let per_call (tm : Probe.timer) = div (fi tm.ns) (fi tm.calls) in
  let per_slice n = div (fi n) slices in
  let share ns = div (fi ns) run in
  let pct q =
    if Lotto_obs.Hdr.count p.select_lat = 0 then 0.
    else Lotto_obs.Hdr.percentile p.select_lat q
  in
  let sched_ns =
    p.valuation.ns + p.account.ns + p.ready.ns + p.unready.ns + p.transfer.ns
    + p.other.ns
  in
  [
    ("kernel.self_ns_per_slice", "ns", div (run -. attributed) slices);
    ("kernel.spawn_ns", "ns", per_call p.spawn);
    ("kernel.blocks_per_slice", "1/slice", per_slice p.unready.calls);
    ("kernel.wakes_per_slice", "1/slice", per_slice p.ready.calls);
    ("kernel.share", "ratio", div (run -. attributed) run);
    ("sched.select_ns.p50", "ns", pct 50.);
    ("sched.select_ns.p99", "ns", pct 99.);
    ("sched.valuation_ns", "ns", per_call p.valuation);
    ("sched.account_ns", "ns", per_call p.account);
    ("sched.account_per_slice", "1/slice", per_slice p.account.calls);
    ("sched.ready_ns", "ns", per_call p.ready);
    ("sched.unready_ns", "ns", per_call p.unready);
    ("sched.transfer_ns", "ns", per_call p.transfer);
    ("sched.transfer_per_slice", "1/slice", per_slice p.transfer.calls);
    ("sched.scoped_updates_per_slice", "1/slice", per_slice c.scoped_updates);
    ("sched.full_refreshes", "count", fi c.full_refreshes);
    ("sched.share", "ratio", share sched_ns);
    ("draw.pick_ns", "ns", per_call p.pick);
    ("draw.runnable_mean", "threads", div (fi p.runnable_sum) (fi p.pick.calls));
    ( "draw.list_comparisons_per_draw",
      "1/draw",
      div (fi c.list_comparisons) (fi c.draws) );
    ("draw.share", "ratio", share p.pick.ns);
    ("shard.migrations_per_kslice", "1/kslice", 1000. *. per_slice c.migrations);
    ("shard.steals_per_kslice", "1/kslice", 1000. *. per_slice c.steals);
    ("funding.mutation_ns", "ns", per_call p.mutation);
    ("funding.mutations_per_slice", "1/slice", per_slice c.mutations);
    ("funding.fund_thread_ns", "ns", per_call p.fund_thread);
    ("funding.share", "ratio", share p.mutation.ns);
    ("io.submit_ns", "ns", per_call p.io_submit);
    ("io.serve_slot_ns", "ns", per_call p.io_serve);
    ("io.slots", "count", fi c.io_slots);
    ("io.share", "ratio", share (p.io_submit.ns + p.io_serve.ns));
    ("trace.attributed", "ratio", div attributed run);
  ]
  @ List.concat_map
      (fun name ->
        let t =
          List.find_opt (fun (t : Outcome.tenant) -> t.name = name) c.tenants
        in
        let get f = match t with Some t -> fi (f t) | None -> 0. in
        let arrivals = get (fun t -> t.arrivals) and served = get (fun t -> t.served) in
        [
          (Printf.sprintf "service.%s.arrivals" name, "count", arrivals);
          (Printf.sprintf "service.%s.served" name, "count", served);
          (Printf.sprintf "service.%s.shed" name, "count", get (fun t -> t.shed));
          ( Printf.sprintf "service.%s.goodput_ratio" name,
            "ratio",
            div served arrivals );
        ])
      tenant_names

(* The traced run: untraced and traced runs of the same seed alternate
   until the time is up. Every traced run must reproduce the untraced
   run's simulated counts exactly, and when the library has a whole-
   program entry point for the world it must report the same counts as
   the composed world. *)
let traced (module W : Workload.S) ~seed ~seconds tally =
  let deadline = Probe.now () + (seconds * 1_000_000_000) in
  let untraced = ref [] and traced = ref [] in
  let run probe =
    Gc.compact ();
    W.run ?probe ~seed W.size
  in
  let first = run None in
  check tally "untraced run 1" first.failures;
  untraced := [ first ];
  (match W.reference with
  | None -> ()
  | Some f ->
      Gc.compact ();
      let r = f ~seed W.size in
      check tally "whole-program run"
        (r.failures
        @
        if Outcome.observable r.counts = Outcome.observable first.counts then []
        else [ "slices or per-tenant counts differ from the composed world" ]));
  let rec loop () =
    let p = Probe.create () in
    let o = run (Some p) in
    check tally
      (Printf.sprintf "traced run %d" (List.length !traced + 1))
      (o.failures @ same_counts ~what:"traced" first.counts o);
    traced := (p, o) :: !traced;
    if Probe.now () < deadline then begin
      let o = run None in
      check tally
        (Printf.sprintf "untraced run %d" (List.length !untraced + 1))
        (o.failures @ same_counts ~what:"untraced" first.counts o);
      untraced := o :: !untraced;
      loop ()
    end
  in
  loop ();
  (* The layer figures all come from one traced run, the one with the
     median host run time, so that its shares add up to 1. *)
  let by_time =
    List.sort
      (fun (_, (a : Outcome.t)) (_, (b : Outcome.t)) -> compare a.run_ns b.run_ns)
      !traced
  in
  let p, o = List.nth by_time (List.length by_time / 2) in
  let best runs =
    fi (Outcome.best_ns (List.map (fun (o : Outcome.t) -> o.chunks) runs))
  in
  let overhead = div (best (List.map snd !traced)) (best !untraced) in
  let c = first.counts and slices = fi first.counts.slices in
  let metrics =
    layers p o
    @ [
        ("trace.overhead", "x", overhead);
        ("gc.minor_words_per_slice", "words/slice", div first.gc.minor_words slices);
        ( "gc.promoted_words_per_slice",
          "words/slice",
          div first.gc.promoted_words slices );
        ("gc.major_collections", "count", fi first.gc.major_collections);
      ]
  in
  Printf.printf
    "%s seed %d: %d untraced + %d traced runs, %d slices, %d draws, %d \
     migrations\n"
    W.name seed (List.length !untraced) (List.length !traced) c.slices c.draws
    c.migrations;
  Printf.printf "share of host run time in the median traced run:\n";
  List.iter
    (fun layer ->
      let _, _, share = List.find (fun (n, _, _) -> n = layer ^ ".share") metrics in
      Printf.printf "  %-8s %6.3f\n" layer share)
    [ "sched"; "draw"; "funding"; "io"; "kernel" ];
  Printf.printf "  (kernel is the residual)  trace.overhead %.3f\n" overhead;
  metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let w, seed, seconds, trace = parse () in
  let tally = { attempted = 0; failed = 0; notes = [] } in
  let metrics =
    if trace then traced w ~seed ~seconds tally
    else end_to_end w ~seed ~seconds tally
  in
  let metrics =
    List.map
      (fun (name, unit, v) ->
        let v =
          if Float.is_finite v then v
          else begin
            tally.notes <- tally.notes @ [ name ^ " is not a finite number" ];
            0.
          end
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  List.iter (Printf.printf "FAILED %s\n") tally.notes;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.notes = []) tally.attempted tally.failed
    (String.concat ", " metrics)
