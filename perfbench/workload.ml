(* The benchmark's workloads behind one signature. *)

module type S = sig
  val name : string

  type size

  val size : size
  (** the size the benchmark measures *)

  val small : size
  (** a few host milliseconds, for the repeatability tests *)

  val setup : seed:int -> size -> int array
  (** host time to build the world, which is then dropped, in chunks *)

  val run : ?probe:Probe.t -> seed:int -> size -> Outcome.t
  (** build the world and run it to the horizon; traced when [probe] is
      given *)

  val reference : (seed:int -> size -> Outcome.t) option
  (** the library's own whole-program entry point for this world, when
      [run] has to compose it from parts *)
end

let all : (module S) list =
  [ (module Churn); (module Smp); (module Service_wl) ]

let find name = List.find_opt (fun (module W : S) -> W.name = name) all
let names = List.map (fun (module W : S) -> W.name) all
