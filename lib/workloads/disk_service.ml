open Lotto_sim
module Rng = Lotto_prng.Rng
module Draw = Lotto_draw.Draw

type t = {
  port : Types.port;
  cylinders : int;
  tickets : (int, int) Hashtbl.t; (* client thread id -> disk tickets *)
  completed : (int, int) Hashtbl.t;
  mutable total : int;
  mutable head : int;
}

let bump tbl key delta =
  Hashtbl.replace tbl key (delta + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let disk_tickets t (th : Types.thread) =
  Option.value ~default:1 (Hashtbl.find_opt t.tickets th.id)

let start kernel ~rng ~name ?(cylinders = 1000)
    ?(seek_cost = Time.us 10) ?(transfer_cost = Time.ms 2) () =
  if cylinders <= 0 then invalid_arg "Disk_service.start: cylinders <= 0";
  if seek_cost < 0 || transfer_cost <= 0 then
    invalid_arg "Disk_service.start: bad costs";
  let port = Kernel.create_port kernel ~name:(name ^ ":port") in
  let t =
    {
      port;
      cylinders;
      tickets = Hashtbl.create 16;
      completed = Hashtbl.create 16;
      total = 0;
      head = 0;
    }
  in
  ignore
    (Kernel.spawn kernel ~name (fun () ->
         (* requests wait here between arrival and their lottery win;
            synchronous clients have at most one outstanding each *)
         let pending : Types.message list ref = ref [] in
         while true do
           (* drain new arrivals without blocking *)
           let rec drain () =
             match Api.poll_receive port with
             | Some m ->
                 pending := !pending @ [ m ];
                 drain ()
             | None -> ()
           in
           drain ();
           if !pending = [] then pending := [ Api.receive port ];
           (* lottery among queued requests, weighted by disk tickets (an
              ephemeral draw per decision, like the scheduler's waiter
              picks; reversed insertion keeps arrival-order scans) *)
           let d = Draw.of_mode Draw.List in
           List.iter
             (fun (m : Types.message) ->
               ignore
                 (Draw.add d ~client:m ~weight:(disk_tickets t m.sender)))
             (List.rev !pending);
           let winner =
             match Draw.draw_client d rng with
             | Some m -> m
             | None -> List.hd !pending (* all zero-ticket: oldest first *)
           in
           pending := List.filter (fun (m : Types.message) -> m.msg_id <> winner.msg_id) !pending;
           let cylinder =
             match int_of_string_opt winner.payload with
             | Some c when c >= 0 && c < t.cylinders -> c
             | _ -> 0
           in
           (* the mechanical service happens in parallel with the CPU (a
              controller, not a computation): sleep, don't compute *)
           Api.sleep ((abs (cylinder - t.head) * seek_cost) + transfer_cost);
           t.head <- cylinder;
           t.total <- t.total + 1;
           bump t.completed winner.sender.id 1;
           Api.reply winner ""
         done));
  t

let set_disk_tickets t (th : Types.thread) n =
  if n < 0 then invalid_arg "Disk_service.set_disk_tickets: negative";
  Hashtbl.replace t.tickets th.id n

let read t ~cylinder =
  if cylinder < 0 || cylinder >= t.cylinders then
    invalid_arg "Disk_service.read: cylinder out of range";
  ignore (Api.rpc t.port (string_of_int cylinder))

let reads_completed t (th : Types.thread) =
  Option.value ~default:0 (Hashtbl.find_opt t.completed th.id)

let total_reads t = t.total
let head_position t = t.head
