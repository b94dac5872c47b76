(* A kernel's event stream as text, one "<time> <event>" line per bus
   event rendered by [Obs.Event.render]: the form the determinism tests
   compare byte for byte. *)

open Core

let capture k =
  let buf = Buffer.create 4096 in
  ignore
    (Obs.Bus.subscribe ~name:"trace-lines" (Kernel.bus k) (fun time ev ->
         Buffer.add_string buf (Printf.sprintf "%d %s\n" time (Obs.Event.render ev))));
  buf
