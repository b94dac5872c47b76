(* The benchmark's exact counts repeat for a seed, whether the run is
   traced or not, and its checks pass; another seed gives other inputs. *)

open Lotto_perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  List.iter
    (fun (module W : Workload.S) ->
      let a = W.run ~seed:1 W.small in
      let b = W.run ~seed:1 W.small in
      let traced = W.run ~probe:(Probe.create ()) ~seed:1 W.small in
      let other = W.run ~seed:2 W.small in
      List.iter
        (fun (what, (o : Outcome.t)) ->
          if o.failures <> [] then
            fail "%s %s: %s" W.name what (String.concat "; " o.failures))
        [ ("seed 1", a); ("seed 1 again", b); ("traced", traced); ("seed 2", other) ];
      if a.counts <> b.counts then fail "%s: counts differ between two runs" W.name;
      if a.counts <> traced.counts then fail "%s: traced counts differ" W.name;
      if a.gc.minor_words <> b.gc.minor_words then
        fail "%s: allocation differs between two runs" W.name;
      if a.sim_p99_ms <> b.sim_p99_ms then fail "%s: simulated p99 differs" W.name;
      if a.counts = other.counts then fail "%s: seed 2 repeats seed 1" W.name;
      if a.counts.slices = 0 || a.counts.requests = 0 then
        fail "%s: nothing ran" W.name;
      (match W.reference with
      | None -> ()
      | Some f ->
          let r = f ~seed:1 W.small in
          if r.failures <> [] then
            fail "%s whole program: %s" W.name (String.concat "; " r.failures);
          if Outcome.observable r.counts <> Outcome.observable a.counts then
            fail "%s: the whole program and the composed world differ" W.name);
      Printf.printf "%s: %d slices, %d draws, %d requests repeat exactly\n" W.name
        a.counts.slices a.counts.draws a.counts.requests)
    Workload.all
