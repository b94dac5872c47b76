(* Currency funding glue shared by the resource managers.

   A funded client competes in its resource's lotteries exactly like a
   thread competes for the CPU: it holds a ticket issued in the funding
   currency, so the currency's value is divided among everything it funds
   (CPU threads, disk clients, circuits, ...) in proportion to face
   amounts, and inflating a backing ticket shifts every resource at once.
   Managers suspend the held ticket while the client has no queued work, so
   an idle stream's rights re-concentrate into the currency's other
   consumers (the paper's lightly-contended-resource property, applied
   across resources). *)

module F = Lotto_tickets.Funding

type t = { sys : F.system; ticket : F.ticket }

let attach sys ~currency ~amount =
  if amount <= 0 then invalid_arg "Funded.attach: amount <= 0";
  let ticket = F.issue sys ~currency ~amount in
  F.hold sys ticket;
  { sys; ticket }

(* Activate/deactivate the competing ticket (idempotent). *)
let set_active fd active =
  if active then F.resume fd.sys fd.ticket else F.suspend fd.sys fd.ticket

let value fd = F.ticket_value fd.sys fd.ticket
let currency fd = F.denomination fd.ticket
let detach fd = F.destroy_ticket fd.sys fd.ticket

(* Scoped change tracking shared by the managers. A manager registers
   interest in each funding currency together with the client it funds
   ([watch]); change events then record only those currencies — the
   thread currencies that make up most of a busy system's traffic are one
   array load each and never enter the tracker — and a drain hands the
   manager exactly the clients to revalue, O(dirtied) rather than a walk
   over every client. Recording is allocation-free: per-slot entries, an
   in-queue flag, and an int stack of currency slots. *)
module Tracker = struct
  type 'a entry = {
    cur : F.currency;
    mutable clients : 'a list; (* most recently watched first *)
    mutable queued : bool;
  }

  type 'a t = {
    mutable by_slot : 'a entry option array; (* by funding-currency slot *)
    mutable stack : int array; (* queued currency slots *)
    mutable top : int;
    mutable full : bool;
  }

  let record tr c =
    let s = F.currency_slot c in
    if s < Array.length tr.by_slot then
      match tr.by_slot.(s) with
      | Some e when e.cur == c && not e.queued ->
          e.queued <- true;
          if tr.top = Array.length tr.stack then begin
            let a = Array.make (2 * tr.top) 0 in
            Array.blit tr.stack 0 a 0 tr.top;
            tr.stack <- a
          end;
          tr.stack.(tr.top) <- s;
          tr.top <- tr.top + 1
      | _ -> ()

  let attach sys =
    let tr = { by_slot = [||]; stack = Array.make 8 0; top = 0; full = false } in
    let record_one = record tr in
    ignore (F.on_change sys (fun ch -> F.iter_changed ch record_one));
    tr

  let watch tr currency client =
    let s = F.currency_slot currency in
    if s >= Array.length tr.by_slot then begin
      let a = Array.make (max 16 (2 * (s + 1))) None in
      Array.blit tr.by_slot 0 a 0 (Array.length tr.by_slot);
      tr.by_slot <- a
    end;
    match tr.by_slot.(s) with
    | Some e when e.cur == currency -> e.clients <- client :: e.clients
    | _ ->
        tr.by_slot.(s) <- Some { cur = currency; clients = [ client ]; queued = false }

  let force tr = tr.full <- true

  (* The currencies the next drain will visit, in its order. Read-only. *)
  let pending tr =
    let acc = ref [] in
    for i = 0 to tr.top - 1 do
      match tr.by_slot.(tr.stack.(i)) with
      | Some e when e.queued -> acc := e.cur :: !acc
      | _ -> ()
    done;
    !acc

  (* Pops the stack, most recently recorded currency first. Each entry is
     visited once, at its first stack position with [queued] set: a slot
     whose entry was replaced after it was queued (currency removed, slot
     recycled, a new currency watched there) is skipped unless the new
     entry was queued too. *)
  let drain tr f =
    let fire = not tr.full in
    let any = tr.top > 0 in
    while tr.top > 0 do
      tr.top <- tr.top - 1;
      match tr.by_slot.(tr.stack.(tr.top)) with
      | Some e when e.queued ->
          e.queued <- false;
          if fire then List.iter f e.clients
      | _ -> ()
    done;
    if tr.full then begin
      tr.full <- false;
      `All
    end
    else if any then `Dirtied
    else `None
end
