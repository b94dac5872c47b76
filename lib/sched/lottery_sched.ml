open Lotto_sim.Types
module F = Lotto_tickets.Funding
module D = Lotto_draw.Draw
module Sh = Lotto_draw.Shard_tree
module Rng = Lotto_prng.Rng

type mode = List_mode | Tree_mode | Alias_mode

let draw_mode = function
  | List_mode -> D.List
  | Tree_mode -> D.Tree
  | Alias_mode -> D.Alias

(* Face amount of every thread's competing ticket. The value is arbitrary:
   a thread currency's worth flows through whatever single ticket is active
   in it, so only the amount's positivity matters. *)
let competing_amount = 1000

type tstate = {
  th : thread;
  some : thread option; (* preallocated [Some th]: select returns this *)
  cur : F.currency;
  competing : F.ticket;
  mutable donations : (int * F.ticket) list; (* dst thread id -> transfer *)
  mutable dh : tstate D.handle option;
      (* allocated at the first enqueue and kept forever (the [Some] box
         included): block/wake, dispatch and migration recycle the same
         handle through {!D.remove}/{!D.readd}, so the steady-state
         quantum cycle allocates nothing. [in_draw] carries liveness. *)
  mutable in_fq : bool; (* queued in a round-robin fallback ring *)
  mutable in_pending : bool; (* queued for a scoped weight refresh *)
  mutable shard : int; (* owning shard; -1 until first placement *)
  mutable in_draw : bool; (* live in its shard's draw structure *)
  mutable counted : bool;
      (* this thread's [wlast] is accumulated in the shard tree: true for
         runnable *and* dispatched (on-CPU) threads, false while blocked —
         so a running thread still attracts rebalancing pressure to its
         shard but can never itself be drawn, stolen or migrated *)
  mutable wlast : int;
      (* the last weight written to a shard draw, in {!D.units}: what every
         draw call is handed — the write itself, a re-insert, a
         migration — and what the shard tree counts *)
}

(* Per-thread and per-currency state lives in arrays indexed by the dense
   arena handles the kernel and the funding system hand out ([thread.tslot]
   and {!F.currency_slot}) instead of id-keyed hashtables: a lookup is one
   bounds check and a load. Slots are recycled after death, so every read
   guards with a physical-equality check on the stored thread/currency —
   a stale entry for a previous occupant can never be mistaken for the
   current one (detach clears eagerly; the guard is belt-and-braces). *)
type t = {
  mode : mode;
  rng : Rng.t;
  system : F.system;
  mutable st_tab : tstate option array; (* by thread slot *)
  mutable by_cslot : tstate option array; (* by thread-currency slot *)
  mutable vcache : float array;
      (* by thread slot: the unquantized value behind the last weight
         written to the draw (NaN before the first write). A float array
         holds it unboxed, so comparing a fresh value against it
         allocates nothing *)
  mutable pending : int array;
      (* thread currencies dirtied since the last flush, in first-dirtied
         order, as (currency slot, slot generation) pairs: the generation
         makes an entry left behind by a detached thread dead even after
         its slot is recycled, and ints keep the buffer allocation- and
         write-barrier-free *)
  mutable pending_n : int; (* pairs in [pending] *)
  scratch : thread D.t; (* reusable waiter-pick draw, cleared between picks *)
  shards : int; (* >= 1; shard [i] serves virtual CPU [i] *)
  sdraws : tstate D.t array; (* one draw structure per virtual CPU *)
  srings : tstate Queue.t array; (* per-shard fallback rings *)
  stree : Sh.t; (* partial-sum tree over per-shard ticket masses *)
  imbalance_band : float; (* rebalance trigger, as a fraction of total/N *)
  mutable migration_enabled : bool;
  mutable placement_hook : (thread -> int) option;
  members : int array; (* threads placed on each shard *)
  mutable migrations : int;
  mutable steals : int;
  quantum_fallback : bool;
  use_compensation : bool;
  mutable dirty : bool; (* ALL draw weights need recomputation *)
  mutable draws : int;
  mutable full_refreshes : int;
  mutable scoped_updates : int;
  mutable draw_hook : (runnable:int -> total_weight:float -> unit) option;
      (* observability probe, fired once per lottery *)
  mutable profiler : Lotto_obs.Profile.t option;
      (* when set, valuation (pending-weight flush) and draw host-clock
         costs are recorded per select *)
}

let ensure_cap arr n =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let a = Array.make (max 16 (max (n + 1) (2 * len))) None in
    Array.blit arr 0 a 0 len;
    a
  end

let ensure_capf arr n =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let a = Array.make (max 16 (max (n + 1) (2 * len))) nan in
    Array.blit arr 0 a 0 len;
    a
  end

let slot_get arr slot =
  if slot < 0 || slot >= Array.length arr then None else arr.(slot)

(* The guarded lookups: a hit only counts when the occupant is the same
   record the state was created for. The [as]-patterns return the option
   already sitting in the table — rebuilding [Some s] here would charge
   every accounting call two minor words. *)
let find_state t (th : thread) =
  match slot_get t.st_tab th.tslot with
  | Some s as o when s.th == th -> o
  | _ -> None

let find_by_currency t c =
  match slot_get t.by_cslot (F.currency_slot c) with
  | Some s as o when s.cur == c -> o
  | _ -> None

let record_dirty t c =
  match find_by_currency t c with
  | Some s when not s.in_pending ->
      s.in_pending <- true;
      let i = 2 * t.pending_n in
      if i = Array.length t.pending then begin
        let a = Array.make (2 * i) 0 in
        Array.blit t.pending 0 a 0 i;
        t.pending <- a
      end;
      t.pending.(i) <- F.currency_slot c;
      t.pending.(i + 1) <- F.currency_generation t.system c;
      t.pending_n <- t.pending_n + 1
  | _ -> ()

let create ?(mode = List_mode) ?(quantum_fallback = true)
    ?(use_compensation = true) ?(shards = 1) ?(imbalance_band = 0.25) ~rng () =
  if shards < 0 then invalid_arg "Lottery_sched.create: shards < 0";
  if imbalance_band <= 0. then
    invalid_arg "Lottery_sched.create: imbalance_band <= 0";
  let shards = max 1 shards in
  let t =
    {
      mode;
      rng;
      system = F.create_system ();
      st_tab = [||];
      by_cslot = [||];
      vcache = [||];
      pending = Array.make 32 0;
      pending_n = 0;
      scratch = D.of_mode (draw_mode mode);
      shards;
      sdraws = Array.init shards (fun _ -> D.of_mode (draw_mode mode));
      srings = Array.init shards (fun _ -> Queue.create ());
      stree = Sh.create ~shards;
      imbalance_band;
      migration_enabled = true;
      placement_hook = None;
      members = Array.make shards 0;
      migrations = 0;
      steals = 0;
      quantum_fallback;
      use_compensation;
      dirty = false;
      draws = 0;
      full_refreshes = 0;
      scoped_updates = 0;
      draw_hook = None;
      profiler = None;
    }
  in
  (* Scoped change tracking: every funding mutation — ours or a caller's
     going straight through the Funding API — reports the currencies it
     dirtied; we record the ones that belong to draw clients and revalue
     exactly those before the next lottery. *)
  let record = record_dirty t in
  ignore (F.on_change t.system (fun ch -> F.iter_changed ch record));
  t

let funding t = t.system
let base_currency t = F.base t.system
let make_currency t name = F.make_currency t.system ~name
let mark_dirty t = t.dirty <- true

let state t th =
  match find_state t th with
  | Some s -> s
  | None ->
      if th.tslot < 0 then
        invalid_arg "Lottery_sched.state: thread already reaped";
      let cur = F.make_thread_currency t.system ~thread:th.id ~name:th.name in
      let competing = F.issue t.system ~currency:cur ~amount:competing_amount in
      let s =
        {
          th;
          some = Some th;
          cur;
          competing;
          donations = [];
          dh = None;
          in_fq = false;
          in_pending = false;
          shard = -1;
          in_draw = false;
          counted = false;
          wlast = 0;
        }
      in
      t.st_tab <- ensure_cap t.st_tab th.tslot;
      t.vcache <- ensure_capf t.vcache th.tslot;
      (* one option box serves both tables *)
      let o = Some s in
      t.st_tab.(th.tslot) <- o;
      let cslot = F.currency_slot cur in
      t.by_cslot <- ensure_cap t.by_cslot cslot;
      t.by_cslot.(cslot) <- o;
      s

let thread_currency t th = (state t th).cur

(* Draw weight: the thread currency's active backing value, times the
   kernel-maintained compensation factor (when enabled). Valuations are
   cached incrementally inside Funding, so this is O(1) on a quiescent
   graph. *)
let[@inline] factor t (s : tstate) =
  if t.use_compensation then s.th.compensate else 1.
let[@inline] value_of t s = F.currency_value t.system s.cur *. factor t s
let thread_value t th = value_of t (state t th)

(* --- per-CPU shards: mass accounting, migration, stealing -------------- *)

(* The shard tree tracks the live ticket mass *assigned* to each shard:
   runnable threads waiting in the shard's draw plus the thread currently
   dispatched on that CPU (dequeued but still consuming the shard's share).
   Blocked threads carry no mass. Tracking assignment rather than draw
   occupancy keeps the steady-state quantum cycle (dispatch dequeue +
   account re-enqueue) entirely off the tree: only block/wake, funding
   changes and migrations touch it. *)

(* Compare the thread's value against the one behind its last write. When
   it changed, quantize it into [wlast] (moving the shard mass by the
   difference if the thread is counted) and return [true]. The quiescent
   path compares one unboxed float and calls nothing: handing the fresh
   value to {!D.units} would box it. *)
let revalue t s =
  let slot = s.th.tslot in
  let v = value_of t s in
  if v <> t.vcache.(slot) then begin
    t.vcache.(slot) <- v;
    let nw = D.units v in
    if s.counted then Sh.adjust t.stree s.shard (nw - s.wlast);
    s.wlast <- nw;
    true
  end
  else false

(* The weight write of the valuation path: revalue an in-draw thread and
   hand its weight to the draw. The write happens even when nothing
   changed — a weight delta of zero leaves every backend bit-identical. *)
let write_weight t s =
  match s.dh with
  | Some h when s.in_draw ->
      ignore (revalue t s : bool);
      D.set_weight t.sdraws.(s.shard) h s.wlast
  | _ -> ()

(* Take a thread off its shard's draw; its mass stays counted. *)
let dequeue t s =
  (match s.dh with
  | Some h -> D.remove t.sdraws.(s.shard) h
  | None -> ());
  s.in_draw <- false

(* A thread leaving the runnable set (block, exit): its mass leaves its
   shard and, unless it is the one on the CPU, its handle leaves the
   draw. *)
let withdraw t s =
  if s.counted then begin
    Sh.adjust t.stree s.shard (-s.wlast);
    s.counted <- false
  end;
  if s.in_draw then dequeue t s

(* (Re-)insert a thread into its shard's draw, revaluing it first. The
   recycled handle makes an unchanged re-insert allocation-free. [wake]
   marks a thread entering the runnable set: on a one-shard scheduler that
   always counts as one scoped weight write (so a block/wake costs exactly
   one, whatever changed); otherwise only a changed weight counts. *)
let enqueue t s ~wake =
  if not s.in_draw then begin
    if revalue t s || (wake && not (t.shards > 1)) then
      t.scoped_updates <- t.scoped_updates + 1;
    (match s.dh with
    | Some h -> D.readd t.sdraws.(s.shard) h ~weight:s.wlast
    | None -> s.dh <- Some (D.add t.sdraws.(s.shard) ~client:s ~weight:s.wlast));
    s.in_draw <- true;
    if not s.counted then begin
      Sh.adjust t.stree s.shard s.wlast;
      s.counted <- true
    end;
    if not s.in_fq then begin
      Queue.push s t.srings.(s.shard);
      s.in_fq <- true
    end
  end

(* Hand a drawn thread to its CPU. With more than one shard another CPU
   may draw in the same kernel round, so the winner leaves its draw for
   the duration of its slice and [account] re-inserts it. With one shard
   nobody else draws before [account], and the winner stays where it is:
   a dequeue/re-insert per decision would reorder the List backend behind
   any mid-slice wake and force an O(n) table rebuild per decision in the
   Alias backend. *)
let[@inline] dispatch t s =
  if t.shards > 1 then dequeue t s;
  s.some

(* Move a thread between shards: O(1) detach from the source structure,
   O(log n) re-insert into the destination, both on the existing handle
   record — zero allocation. Fallback-ring entries are left where they are
   (the one-ring invariant): the stale entry hands the thread to its new
   ring lazily when popped. *)
let migrate t s ~dst =
  if dst < 0 || dst >= t.shards then invalid_arg "Lottery_sched: bad shard";
  if s.shard <> dst then begin
    if s.in_draw then begin
      match s.dh with
      | Some h ->
          D.remove t.sdraws.(s.shard) h;
          D.readd t.sdraws.(dst) h ~weight:s.wlast
      | None -> assert false
    end;
    if s.counted then begin
      Sh.adjust t.stree s.shard (-s.wlast);
      Sh.adjust t.stree dst s.wlast
    end;
    t.members.(s.shard) <- t.members.(s.shard) - 1;
    t.members.(dst) <- t.members.(dst) + 1;
    s.shard <- dst;
    t.migrations <- t.migrations + 1
  end

(* Ticket-weighted placement: a new thread lands on the least-loaded shard
   by live ticket mass, unless a placement hook pins it somewhere specific.
   Equal masses go to the shard holding the fewest threads, then the lowest
   id: threads are placed at spawn, before they are funded, so a burst of
   spawns sees all-zero masses and must still spread evenly rather than
   pile onto shard 0 for rebalancing to undo. *)
let place t s =
  if s.shard < 0 then begin
    let i =
      match t.placement_hook with
      | None -> Sh.least_loaded t.stree ~members:t.members
      | Some f ->
          let i = f s.th in
          if i < 0 || i >= t.shards then
            invalid_arg "Lottery_sched: placement hook returned a bad shard";
          i
    in
    s.shard <- i;
    t.members.(i) <- t.members.(i) + 1
  end

(* Hysteresis rebalance, run at every scheduling decision: trigger when
   the richest or poorest shard strays more than [imbalance_band] x the
   fair share from it, then migrate ticket-weighted picks rich -> poor
   until back within half the band (or the move budget runs out). The
   no-overshoot rule — the rich shard must stay at least as rich as the
   poor one becomes — stops a single heavy thread from ping-ponging
   between shards. On a balanced system this is two O(shards) scans and
   no draw. *)
let max_rebalance_moves = 8

let rebalance t =
  let tot = Sh.total t.stree in
  if tot > 0 then begin
    let ideal = tot / t.shards in
    let full_band = int_of_float (t.imbalance_band *. float_of_int ideal) in
    let thresh = ref full_band in
    let moves = ref 0 in
    let go = ref true in
    while !go && !moves < max_rebalance_moves do
      go := false;
      let rich = Sh.max_shard t.stree in
      let poor = Sh.min_shard t.stree in
      let mr = Sh.get t.stree rich in
      let mp = Sh.get t.stree poor in
      if rich <> poor && (mr - ideal > !thresh || ideal - mp > !thresh) then begin
        let w = D.draw_slot t.sdraws.(rich) t.rng in
        if w >= 0 then begin
          let s = D.client_at t.sdraws.(rich) w in
          if mr - s.wlast >= mp + s.wlast then begin
            migrate t s ~dst:poor;
            thresh := full_band / 2;
            incr moves;
            go := true
          end
        end
      end
    done
  end

(* Work stealing, tried when a CPU's own shard has no funded runnable
   thread: pick a source shard ticket-weighted through the shard tree,
   draw a victim from it, and migrate it here. One steal per empty
   decision keeps the RNG consumption bounded and deterministic. *)
let steal t ~dst =
  let tot = Sh.total t.stree in
  if (not t.migration_enabled) || tot = 0 then None
  else begin
    let src = Sh.pick t.stree ~winning:(Rng.int_below t.rng tot) in
    if src < 0 || src = dst then None
    else begin
      let w = D.draw_slot t.sdraws.(src) t.rng in
      if w < 0 then None
      else begin
        let s = D.client_at t.sdraws.(src) w in
        migrate t s ~dst;
        t.steals <- t.steals + 1;
        dispatch t s
      end
    end
  end

(* --- funding API ------------------------------------------------------- *)

let fund_currency t ~target ~amount ~from =
  let ticket = F.issue t.system ~currency:from ~amount in
  F.fund t.system ~ticket ~currency:target;
  ticket

let fund_thread t th ~amount ~from =
  fund_currency t ~target:(thread_currency t th) ~amount ~from

let set_ticket_amount t ticket amount = F.set_amount t.system ticket amount
let destroy_ticket t ticket = F.destroy_ticket t.system ticket

(* --- scheduler callbacks ------------------------------------------------ *)

let ready t th =
  let s = state t th in
  if not (F.is_active s.competing) then F.resume t.system s.competing;
  place t s;
  enqueue t s ~wake:true

let attach t th =
  let s = state t th in
  (* competing ticket becomes held (and active) the first time *)
  F.hold t.system s.competing;
  place t s;
  enqueue t s ~wake:true

let unready t th =
  let s = state t th in
  F.suspend t.system s.competing;
  withdraw t s

let drop_donations t s =
  if s.donations <> [] then begin
    List.iter (fun (_, ticket) -> F.destroy_ticket t.system ticket) s.donations;
    s.donations <- []
  end

(* Divided transfers (§3.1): each active donation ticket is denominated in
   the source's currency with the same face amount, so k concurrent
   transfers automatically split the source's value k ways — and when one
   is withdrawn the rest re-concentrate. *)
let donate t ~src ~dst =
  let s = state t src in
  let d = state t dst in
  let ticket = F.issue t.system ~currency:s.cur ~amount:competing_amount in
  F.fund t.system ~ticket ~currency:d.cur;
  s.donations <- (dst.id, ticket) :: s.donations

let revoke t ~src = drop_donations t (state t src)

let revoke_from t ~src ~dst =
  let s = state t src in
  match List.assoc_opt dst.id s.donations with
  | None -> ()
  | Some ticket ->
      F.destroy_ticket t.system ticket;
      s.donations <- List.remove_assoc dst.id s.donations

let detach t th =
  match find_state t th with
  | None -> ()
  | Some s ->
      withdraw t s;
      if s.shard >= 0 then t.members.(s.shard) <- t.members.(s.shard) - 1;
      drop_donations t s;
      (* Other threads may still be donating to this one (e.g. blocked
         mutex waiters whose owner dies); clear their references before the
         backing sweep below destroys those tickets. A donation funding
         this thread is by construction a backing ticket of its currency
         denominated in the donor's thread currency, so walking the backing
         edges reaches exactly the donors — O(degree), not a sweep over
         every scheduler state. *)
      List.iter
        (fun b ->
          match find_by_currency t (F.denomination b) with
          | Some donor ->
              donor.donations <-
                List.filter (fun (_, d) -> not (d == b)) donor.donations
          | None -> ())
        (F.backing_tickets t.system s.cur);
      (* Tear down the thread currency: first any tickets still backing it
         (allocations from user currencies), then its issued tickets. *)
      List.iter
        (fun b -> F.destroy_ticket t.system b)
        (F.backing_tickets t.system s.cur);
      let cslot = F.currency_slot s.cur in
      F.destroy_ticket t.system s.competing;
      List.iter
        (fun i -> F.destroy_ticket t.system i)
        (F.issued_tickets t.system s.cur);
      F.remove_currency t.system s.cur;
      if th.tslot >= 0 && th.tslot < Array.length t.st_tab then
        t.st_tab.(th.tslot) <- None;
      if cslot >= 0 && cslot < Array.length t.by_cslot then
        t.by_cslot.(cslot) <- None

let refresh_weights t =
  t.full_refreshes <- t.full_refreshes + 1;
  Array.iter (function Some s -> write_weight t s | None -> ()) t.st_tab

(* The [i]th pending entry's thread state, clearing its queued flag; [None]
   for an entry whose thread was detached (its currency slot emptied or
   recycled since). Returns the option already stored in the table. *)
let take_pending t i =
  match slot_get t.by_cslot t.pending.(2 * i) with
  | Some s as o
    when s.in_pending
         && F.currency_generation t.system s.cur = t.pending.((2 * i) + 1) ->
      s.in_pending <- false;
      o
  | _ -> None

(* Bring the draws in sync with the funding graph: a full rebuild only when
   explicitly requested ({!mark_dirty}), otherwise revalue exactly the
   threads whose currencies the change events dirtied — O(changed), the
   steady-state path, in first-dirtied order. A thread out of its draw
   (blocked, or dispatched on another CPU) is skipped: its caches disagree
   with the funding graph until {!enqueue} reconciles them on re-insert. *)
let flush_pending t =
  let n = t.pending_n in
  t.pending_n <- 0;
  if t.dirty then begin
    refresh_weights t;
    t.dirty <- false;
    for i = 0 to n - 1 do
      ignore (take_pending t i : tstate option)
    done
  end
  else
    for i = 0 to n - 1 do
      match take_pending t i with
      | Some s when s.in_draw ->
          write_weight t s;
          t.scoped_updates <- t.scoped_updates + 1
      | _ -> ()
    done

(* Unfunded threads never win a lottery (paper: zero tickets = starvation).
   To keep simulations with forgotten funding alive, optionally fall back to
   round-robin among a shard's runnable threads when every one of them has
   zero weight. The ring holds each runnable thread once; stale entries
   (threads that blocked, exited or were dispatched since being queued) are
   dropped lazily, so a pick is O(1) amortized. An entry whose thread
   migrated away is handed to its new shard's ring on pop rather than
   eagerly on migrate (the one-ring invariant). *)
let ring_pick t c =
  if not t.quantum_fallback then None
  else begin
    let rec next () =
      match Queue.take_opt t.srings.(c) with
      | None -> None
      | Some s ->
          if not s.in_draw then begin
            (* blocked, dispatched or dead: drop; re-enqueue re-rings it *)
            s.in_fq <- false;
            next ()
          end
          else if s.shard <> c then begin
            Queue.push s t.srings.(s.shard);
            next ()
          end
          else begin
            Queue.push s t.srings.(c);
            dispatch t s
          end
    in
    next ()
  end

let runnable_count t =
  let n = ref 0 in
  for i = 0 to t.shards - 1 do
    n := !n + D.size t.sdraws.(i)
  done;
  !n

let fire_draw_hook t =
  match t.draw_hook with
  | None -> ()
  | Some hook ->
      hook ~runnable:(runnable_count t)
        ~total_weight:(D.tickets (Sh.total t.stree))

(* One scheduling decision for virtual CPU [cpu] = shard [cpu]. The local
   draw is consulted first; an empty (or unfunded) shard tries a ticket-
   weighted steal when there are other shards, then its fallback ring.
   Slot-based draw: the winner comes back as an int token and resolves to
   the tstate's preallocated [Some th] — no option or handle wrapper is
   built per decision. *)
let select t ~cpu =
  if cpu >= t.shards then
    invalid_arg
      (Printf.sprintf "Lottery_sched.select: cpu %d, but only %d shard(s)" cpu
         t.shards);
  t.draws <- t.draws + 1;
  (match t.profiler with
  | None ->
      flush_pending t;
      fire_draw_hook t
  | Some p ->
      let t0 = Lotto_obs.Profile.start p in
      flush_pending t;
      Lotto_obs.Profile.stop p Lotto_obs.Profile.Valuation t0;
      fire_draw_hook t);
  if t.shards > 1 && t.migration_enabled then rebalance t;
  let d = t.sdraws.(cpu) in
  let w =
    match t.profiler with
    | None -> D.draw_slot d t.rng
    | Some p ->
        let t0 = Lotto_obs.Profile.start p in
        let w = D.draw_slot d t.rng in
        Lotto_obs.Profile.stop p Lotto_obs.Profile.Draw t0;
        w
  in
  if w >= 0 then dispatch t (D.client_at d w)
  else
    match if t.shards > 1 then steal t ~dst:cpu else None with
    | Some _ as won -> won
    | None -> ring_pick t cpu

(* The slice is over. On one shard the thread never left its draw:
   refresh its weight in place, since its compensation factor was reset
   when its quantum started and possibly re-set when it blocked (skipped
   while a full refresh is pending, and when neither input changed — the
   comparison keeps the quiescent path free of fresh floats). A thread
   dispatched off a shard that other CPUs share is put back if its slice
   left it runnable. Blocked and exited threads were already handled by
   unready/detach. *)
let account t th ~used:_ ~quantum:_ ~blocked:_ =
  match find_state t th with
  | Some ({ dh = Some h; _ } as s) when s.in_draw ->
      if (not t.dirty) && revalue t s then
        D.set_weight t.sdraws.(s.shard) h s.wlast
  | Some s when th.state = Runnable -> enqueue t s ~wake:false
  | _ -> ()

(* Lottery among blocked waiters (paper §6.1), weighted by each waiter's
   own funding. A waiter's thread currency is inactive while it blocks (its
   competing ticket is suspended, and condition/semaphore waiters donate to
   nobody), so we weigh its *potential* value: the sum of its backing
   tickets at current exchange rates — exactly what the waiter would be
   worth the moment it wakes. *)
let potential_value t (s : tstate) =
  List.fold_left
    (fun acc b ->
      acc +. (float_of_int (F.amount b) *. F.unit_value t.system (F.denomination b)))
    0.
    (F.backing_tickets t.system s.cur)

(* The pick goes through the same draw backend as the CPU lottery: the
   scheduler's scratch structure over the waiters, weighted by potential
   value and cleared again by the next pick. The list backend prepends, so
   waiters are inserted back-to-front to keep the scan in arrival order
   (matching the historical walk) without allocating a reversed list. *)
let pick_waiter t waiters =
  let d = t.scratch in
  D.clear d;
  let insert w =
    ignore (D.add d ~client:w ~weight:(D.units (potential_value t (state t w))))
  in
  (match t.mode with
  | Tree_mode | Alias_mode -> List.iter insert waiters
  | List_mode ->
      let rec back_to_front = function
        | [] -> ()
        | w :: rest ->
            back_to_front rest;
            insert w
      in
      back_to_front waiters);
  let s = D.draw_slot d t.rng in
  if s < 0 then None else Some (D.client_at d s)

let sched t =
  {
    sched_name =
      (match t.mode with
      | List_mode -> "lottery-list"
      | Tree_mode -> "lottery-tree"
      | Alias_mode -> "lottery-alias");
    attach = attach t;
    detach = detach t;
    ready = ready t;
    unready = unready t;
    cpus = t.shards;
    select = (fun ~cpu -> select t ~cpu);
    account = (fun th ~used ~quantum ~blocked -> account t th ~used ~quantum ~blocked);
    donate = (fun ~src ~dst -> donate t ~src ~dst);
    revoke = (fun ~src -> revoke t ~src);
    revoke_from = (fun ~src ~dst -> revoke_from t ~src ~dst);
    pick_waiter = (fun ws -> pick_waiter t ws);
  }

let set_draw_hook t hook = t.draw_hook <- hook
let set_profiler t p = t.profiler <- p

(* --- auditable introspection -------------------------------------------- *)

(* Read-only: must go through [find_state], never [state], which would
   resurrect a currency for a detached (dead) thread. *)
let donation_targets t th =
  match find_state t th with
  | None -> []
  | Some s -> List.map fst s.donations

let check_funding_coherence t threads =
  let out = ref [] in
  let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun th ->
      let sched_side = List.sort compare (donation_targets t th) in
      let kernel_side =
        List.sort compare (List.map (fun (d : thread) -> d.id) th.donating_to)
      in
      if sched_side <> kernel_side then
        vf "%s: kernel donating_to [%s] but scheduler holds transfers to [%s]"
          th.name
          (String.concat ";" (List.map string_of_int kernel_side))
          (String.concat ";" (List.map string_of_int sched_side)))
    threads;
  (* The kernel's thread list is live-only, so dead threads with leftover
     funding state can't be caught from [threads]; sweep our own table. A
     healthy detach clears the entry at death, so any surviving zombie (or
     slot/thread disagreement) is a leak. *)
  Array.iteri
    (fun i entry ->
      match entry with
      | Some s when s.th.state = Zombie ->
          vf "%s: dead thread still has scheduler funding state" s.th.name
      | Some s when s.th.tslot <> i ->
          vf "%s: scheduler state at slot %d but thread slot is %d" s.th.name i
            s.th.tslot
      | _ -> ())
    t.st_tab;
  (match F.check_invariants t.system with
  | () -> ()
  | exception Failure msg -> vf "funding graph: %s" msg);
  List.rev !out

let thread_entitlement t th = potential_value t (state t th)

let draws t = t.draws
let full_refreshes t = t.full_refreshes
let scoped_weight_updates t = t.scoped_updates

let list_comparisons t =
  match t.mode with
  | List_mode ->
      Some
        (Array.fold_left
           (fun n d -> n + Option.value (D.comparisons d) ~default:0)
           0 t.sdraws)
  | Tree_mode | Alias_mode -> None

(* --- sharding introspection and control ---------------------------------- *)

let shards t = t.shards
let migrations t = t.migrations
let steals t = t.steals
let set_migration_enabled t b = t.migration_enabled <- b
let set_placement_hook t h = t.placement_hook <- h

let shard_of t th =
  match find_state t th with
  | Some s -> s.shard
  | None -> -1

let shard_ticket_mass t i =
  if i < 0 || i >= t.shards then
    invalid_arg "Lottery_sched.shard_ticket_mass: bad shard";
  D.tickets (Sh.get t.stree i)

let force_migrate t th ~dst =
  if dst < 0 || dst >= t.shards then
    invalid_arg "Lottery_sched.force_migrate: bad shard";
  match find_state t th with
  | Some s when s.shard >= 0 -> migrate t s ~dst
  | _ -> ()

(* Cross-checks the sharded bookkeeping: every live tstate sits in exactly
   the shard draw it claims ([D.mem] there and nowhere else), every shard-
   tree leaf equals the sum of [wlast] over the tstates counted into it,
   and flag coherence (in_draw implies counted implies placed). Read-only;
   safe between any two slices. *)
let check_sharding t =
  let out = ref [] in
  let vf fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let sums = Array.make t.shards 0 in
  Array.iter
    (function
      | None -> ()
      | Some s ->
          if s.in_draw && not s.counted then
            vf "%s: in a shard draw but not counted in the shard tree"
              s.th.name;
          if s.counted && (s.shard < 0 || s.shard >= t.shards) then
            vf "%s: counted but shard id %d out of range" s.th.name s.shard;
          if s.counted && s.shard >= 0 && s.shard < t.shards then
            sums.(s.shard) <- sums.(s.shard) + s.wlast;
          (match s.dh with
          | Some h ->
              for i = 0 to t.shards - 1 do
                let here = D.mem t.sdraws.(i) h in
                if s.in_draw && i = s.shard && not here then
                  vf "%s: claims shard %d but its handle is not there"
                    s.th.name s.shard;
                if here && (not s.in_draw || i <> s.shard) then
                  vf "%s: handle live in shard %d (claims %s)" s.th.name i
                    (if s.in_draw then string_of_int s.shard else "none")
              done
          | None ->
              if s.in_draw then
                vf "%s: in_draw set but no draw handle" s.th.name))
    t.st_tab;
  for i = 0 to t.shards - 1 do
    let leaf = Sh.get t.stree i in
    if leaf <> sums.(i) then
      vf "shard %d: tree mass %d but counted tstates sum to %d units" i leaf
        sums.(i)
  done;
  List.rev !out
