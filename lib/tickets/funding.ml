exception Cycle of string
exception Duplicate_name of string
exception In_use of string

module Slots = Lotto_arena.Slots

type attach = Unattached | Backs of currency | Held

and ticket = {
  tid : int;  (** unique forever; never recycled *)
  mutable tkslot : int;
      (** dense arena slot; [-1] once destroyed and the slot recycled *)
  mutable amount : int;
  denom : currency;
  mutable attach : attach;
  mutable active : bool;
  mutable destroyed : bool;
}

and currency = {
  cid : int;  (** unique forever; never recycled *)
  mutable cslot : int;
      (** dense arena slot; [-1] once removed. Consumers (the scheduler)
          index per-currency state arrays by it, guarding against recycling
          with a physical-equality check on the stored currency. *)
  cname : string;
  owner : int;
      (** [-1] for the base and user currencies, which go by [cname] and
          are indexed in [by_name]. Otherwise the id of the scheduler thread
          this currency funds: such a currency is never indexed, and its
          name [thread:<owner>:<cname>] is formatted only when asked for. *)
  base_p : bool;
  (* Issued/backing edges live as intrusive doubly-linked lists threaded
     through the system's adjacency arrays ([i_prev]/[i_next] for the
     issued list of the denomination, [b_prev]/[b_next] for the backing
     list of the funded currency), indexed by ticket slot. The heads below
     point at the most recently linked ticket, so iteration order is
     exactly the old most-recent-first list order, and unlinking is O(1)
     instead of a [List.filter] over every edge. *)
  mutable issued_head : int;
  mutable backing_head : int;
  mutable active_amount : int;
  mutable alive : bool;
  (* Incremental valuation cache. [cache_ok] means [val_cache] holds the
     currency's value (sum of its active backing tickets in base units; for
     base, the active amount) and [unit_cache] the base units per unit of
     this currency. Invalidation propagates along the currency's dependents
     list (see [invalidate]) to the currencies whose valid caches it backs,
     so a lottery after k mutations revalues O(affected) currencies rather
     than the whole system. *)
  mutable val_cache : float;
  mutable unit_cache : float;
  mutable cache_ok : bool;
  mutable mark : int; (* [would_cycle] visit stamp: seen iff = the epoch *)
}

type system = {
  mutable next_id : int;
  base_currency : currency;
  by_name : (string, currency) Hashtbl.t;
  (* Currency arena: [cur_slots] tracks liveness/creation order, [cur_tab]
     maps slot -> record. *)
  cur_slots : Slots.t;
  mutable cur_tab : currency array;
  (* Ticket arena and the edge adjacency arrays indexed by ticket slot. A
     ticket sits in its denomination's issued list for its whole life and
     in at most one backing list (while [attach = Backs _]), so one slot
     carries both link pairs. [-1] terminates. *)
  tk_slots : Slots.t;
  mutable tk_tab : ticket array;
  mutable i_prev : int array;
  mutable i_next : int array;
  mutable b_prev : int array;
  mutable b_next : int array;
  (* Dependents lists (see [invalidate]): per non-base currency, the
     tickets it issued whose funded currency held a valid cache when they
     were linked, in decreasing tid. [deps] holds three ints per ticket
     slot — prev, next, and the linked ticket's tid, so a link touches one
     cache line — with prev = [unlinked] meaning "in no list"; [dep_ends]
     three per currency slot: head, tail, and the finger (the last entry
     linked, where an out-of-order link starts its search). Both start
     empty and grow on the first link past their length, never in
     [issue], so a system whose tickets are all base-denominated (the
     common per-thread funding) carries neither. *)
  mutable deps : int array;
  mutable dep_ends : int array;
  (* Change subscribers with their subscription ids, in subscription
     order; rebuilt on (rare) subscribe/unsubscribe so [notify] is a plain
     loop. *)
  mutable watchers : (int * (system -> unit)) array;
  (* Valid->stale flips since the last notify, as currency slots in flip
     order: a reusable buffer, so announcing a change allocates nothing. *)
  mutable dirty : int array;
  mutable dirty_n : int;
  mutable epoch : int; (* last [would_cycle] walk's stamp *)
}

type change = system

let fresh_id sys =
  let id = sys.next_id in
  sys.next_id <- id + 1;
  id

let create_system () =
  let cur_slots = Slots.create () in
  let base_slot = Slots.alloc cur_slots in
  let base_currency =
    {
      cid = 0;
      cslot = base_slot;
      cname = "base";
      owner = -1;
      base_p = true;
      issued_head = -1;
      backing_head = -1;
      active_amount = 0;
      alive = true;
      val_cache = 0.;
      unit_cache = 1.;
      cache_ok = false;
      mark = 0;
    }
  in
  let cur_tab = Slots.grow_payload cur_slots [||] ~dummy:base_currency in
  cur_tab.(base_slot) <- base_currency;
  let by_name = Hashtbl.create 16 in
  Hashtbl.replace by_name "base" base_currency;
  {
    next_id = 1;
    base_currency;
    by_name;
    cur_slots;
    cur_tab;
    tk_slots = Slots.create ();
    tk_tab = [||];
    i_prev = [||];
    i_next = [||];
    b_prev = [||];
    b_next = [||];
    deps = [||];
    dep_ends = [||];
    watchers = [||];
    dirty = Array.make 16 0;
    dirty_n = 0;
    epoch = 0;
  }

let base sys = sys.base_currency

(* --- edge lists ---------------------------------------------------------

   Prepends and unlinks on the intrusive lists. New edges link at the head,
   matching the historical [t :: list] prepend, so every traversal below
   visits tickets in the same most-recent-first order as the list
   representation did — load-bearing for the float fold in [ensure] and for
   the order in which activation cascades visit edges. (Invalidation keeps
   the issued-list order through the dependents lists below.) *)

let link_issued sys c s =
  sys.i_prev.(s) <- -1;
  sys.i_next.(s) <- c.issued_head;
  if c.issued_head >= 0 then sys.i_prev.(c.issued_head) <- s;
  c.issued_head <- s

let unlink_issued sys c s =
  let p = sys.i_prev.(s) and n = sys.i_next.(s) in
  if p >= 0 then sys.i_next.(p) <- n else c.issued_head <- n;
  if n >= 0 then sys.i_prev.(n) <- p;
  sys.i_prev.(s) <- -1;
  sys.i_next.(s) <- -1

let link_backing sys c s =
  sys.b_prev.(s) <- -1;
  sys.b_next.(s) <- c.backing_head;
  if c.backing_head >= 0 then sys.b_prev.(c.backing_head) <- s;
  c.backing_head <- s

let unlink_backing sys c s =
  let p = sys.b_prev.(s) and n = sys.b_next.(s) in
  if p >= 0 then sys.b_next.(p) <- n else c.backing_head <- n;
  if n >= 0 then sys.b_prev.(n) <- p;
  sys.b_prev.(s) <- -1;
  sys.b_next.(s) <- -1

(* The next slot is captured before the callback runs, so detaching the
   visited ticket from inside [f] is safe. *)
let iter_issued sys c f =
  let s = ref c.issued_head in
  while !s >= 0 do
    let t = sys.tk_tab.(!s) in
    let n = sys.i_next.(!s) in
    f t;
    s := n
  done

let iter_backing sys c f =
  let s = ref c.backing_head in
  while !s >= 0 do
    let t = sys.tk_tab.(!s) in
    let n = sys.b_next.(!s) in
    f t;
    s := n
  done

let exists_backing sys c f =
  let s = ref c.backing_head in
  let found = ref false in
  while (not !found) && !s >= 0 do
    if f sys.tk_tab.(!s) then found := true else s := sys.b_next.(!s)
  done;
  !found

let collect_list iter sys c =
  let acc = ref [] in
  iter sys c (fun t -> acc := t :: !acc);
  List.rev !acc

(* --- change notification ------------------------------------------------

   Consumers that cache draw weights (the scheduler, the resource managers)
   subscribe here instead of polling; every mutation that moved a valuation
   or an activation fires the callbacks once, and each callback walks the
   currencies whose cached value went stale with {!iter_changed}. The
   callbacks run synchronously and must not mutate the system (recording
   the dirtied currencies for the next draw is the intended use). A batch
   lives in the system's own buffer and is reset after the callbacks ran,
   so a notify allocates nothing — and a mutation that flipped nothing
   (every affected cache was already stale) fires nothing. *)

type subscription = int

(* The id comes from the shared counter, as subscriptions always have, so
   the cid/tid sequences of everything created after a subscription
   (visible in pp/dot output) are unchanged; ids are never reused, so a
   double unsubscribe is a no-op. *)
let on_change sys f =
  let id = fresh_id sys in
  sys.watchers <- Array.append sys.watchers [| (id, f) |];
  id

let unsubscribe sys id =
  sys.watchers <-
    Array.of_list (List.filter (fun (i, _) -> i <> id) (Array.to_list sys.watchers))

(* Most recent flip first. Consumers write draw weights in this order and
   a draw's float total depends on write order, so the order is part of
   every schedule. Each currency appears once per batch: only a valid
   cache can flip, and nothing revalidates between the flips of one
   mutation. *)
let iter_changed sys f =
  for i = sys.dirty_n - 1 downto 0 do
    f sys.cur_tab.(sys.dirty.(i))
  done

let notify sys =
  if sys.dirty_n > 0 then begin
    let ws = sys.watchers in
    for i = 0 to Array.length ws - 1 do
      let _, f = ws.(i) in
      f sys
    done;
    sys.dirty_n <- 0
  end

(* --- dependents lists -----------------------------------------------------

   A ticket [t] in non-base currency [d] that backs [c] makes [c]'s cached
   value depend on [d]'s unit value, so a flip of [d] must flip [c]. Rather
   than walking every ticket [d] ever issued to find the few that back a
   still-valid cache, [d] keeps the {e dependents list} of those tickets:

   - [ensure] links each backing ticket of the currency it validates into
     its denomination's list (active or not: an inactive backing ticket
     still carries the flip, as the issued-list walk it replaces did);
   - [invalidate] walks and empties the list;
   - [unfund] unlinks the ticket.

   So every [Backs] ticket whose target is valid is linked. An entry whose
   target went stale by another path stays until the next walk, which
   skips it. The list is kept in decreasing tid — issued-list order — so a
   walk visits the valid targets in exactly the order the issued walk did
   and the flips, hence every change batch and schedule, are unchanged.
   Base keeps no list (base opacity, below). *)

let unlinked = -2

(* Offsets into [deps] for ticket slot [s], and into [dep_ends] for
   currency slot [c]. *)
let[@inline] prev_of s = 3 * s
let[@inline] next_of s = (3 * s) + 1
let[@inline] tid_of s = (3 * s) + 2
let[@inline] head_of c = 3 * c
let[@inline] tail_of c = (3 * c) + 1
let[@inline] finger_of c = (3 * c) + 2

let grow_strided a ~stride ~cap ~fill =
  let b = Array.make (stride * cap) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Grow only when too short: assigning the fields on every link would pay
   a [caml_modify] per array per link. *)
let reserve_dep sys s cs =
  if tid_of s >= Array.length sys.deps then
    sys.deps <-
      grow_strided sys.deps ~stride:3 ~cap:(Slots.capacity sys.tk_slots) ~fill:unlinked;
  if finger_of cs >= Array.length sys.dep_ends then
    sys.dep_ends <-
      grow_strided sys.dep_ends ~stride:3 ~cap:(Slots.capacity sys.cur_slots) ~fill:(-1)

let dep_linked sys s = tid_of s < Array.length sys.deps && sys.deps.(prev_of s) <> unlinked

(* Link ticket slot [s] (tid [tid]) into [d]'s list unless already there.
   Consumers revalue a batch most recent flip first — ascending tid — so
   relinks after a flip are mostly head inserts, and a consumer that drains
   the other way hits the tail. Runs that straddle entries which stayed
   linked land strictly inside the list; searching from the finger (the
   previous insert) keeps such a run O(1) per link, where a search from a
   fixed end would make it O(k²). *)
let link_dep sys d s tid =
  reserve_dep sys s d.cslot;
  let l = sys.deps and e = sys.dep_ends in
  if l.(prev_of s) = unlinked then begin
    let cs = d.cslot in
    l.(tid_of s) <- tid;
    let h = e.(head_of cs) in
    if h < 0 then begin
      l.(prev_of s) <- -1;
      l.(next_of s) <- -1;
      e.(head_of cs) <- s;
      e.(tail_of cs) <- s
    end
    else if tid > l.(tid_of h) then begin
      l.(prev_of s) <- -1;
      l.(next_of s) <- h;
      l.(prev_of h) <- s;
      e.(head_of cs) <- s
    end
    else begin
      let tl = e.(tail_of cs) in
      if tid < l.(tid_of tl) then begin
        l.(prev_of s) <- tl;
        l.(next_of s) <- -1;
        l.(next_of tl) <- s;
        e.(tail_of cs) <- s
      end
      else begin
        (* strictly between head and tail: find the neighbour [p] with the
           next larger tid, walking down from the nearest known entry above
           [tid] or up from the nearest below — head, tail or finger, with
           tid distance standing in for list distance *)
        let f = e.(finger_of cs) in
        let above = if l.(tid_of f) > tid then f else h
        and below = if l.(tid_of f) < tid then f else tl in
        let p =
          if l.(tid_of above) - tid <= tid - l.(tid_of below) then begin
            let p = ref above in
            while l.(tid_of l.(next_of !p)) > tid do
              p := l.(next_of !p)
            done;
            !p
          end
          else begin
            let p = ref l.(prev_of below) in
            while l.(tid_of !p) < tid do
              p := l.(prev_of !p)
            done;
            !p
          end
        in
        let n = l.(next_of p) in
        l.(prev_of s) <- p;
        l.(next_of s) <- n;
        l.(next_of p) <- s;
        l.(prev_of n) <- s
      end
    end;
    e.(finger_of cs) <- s
  end

let unlink_dep sys d s =
  if dep_linked sys s then begin
    let l = sys.deps and e = sys.dep_ends and cs = d.cslot in
    let p = l.(prev_of s) and n = l.(next_of s) in
    if p >= 0 then l.(next_of p) <- n else e.(head_of cs) <- n;
    if n >= 0 then l.(prev_of n) <- p else e.(tail_of cs) <- p;
    if e.(finger_of cs) = s then e.(finger_of cs) <- (if p >= 0 then p else n);
    l.(prev_of s) <- unlinked;
    l.(next_of s) <- unlinked
  end

(* --- invalidation -------------------------------------------------------

   A currency's value depends on its backing tickets' denominations, so a
   mutation at [c] can move the value of any currency reachable from [c]
   through issued tickets that back other currencies ("upward", toward the
   thread/client leaves in the paper's Figure 3). Three properties keep
   this cheap and sound:

   - stop-early: if [c] is already stale, every currency whose valid cache
     depends on [c] through an active ticket was staled when [c] was
     (reads revalidate a currency only after revalidating the
     denominations of its active backing tickets), so the walk can stop;
   - dependents only: [c]'s walk visits its dependents list, not its issued
     list — O(valid dependents), not O(tickets ever issued). The flips and
     their order are those of the issued walk (see the lists above);
   - base opacity: the base currency's unit value is the constant 1, so its
     active-amount changes never move a dependent's value — invalidation of
     base records base itself and propagates no further. This is what makes
     a block/wake of a base-funded thread O(1). *)

let rec invalidate sys c =
  if c.cache_ok then begin
    c.cache_ok <- false;
    if sys.dirty_n = Array.length sys.dirty then begin
      let a = Array.make (2 * sys.dirty_n) 0 in
      Array.blit sys.dirty 0 a 0 sys.dirty_n;
      sys.dirty <- a
    end;
    sys.dirty.(sys.dirty_n) <- c.cslot;
    sys.dirty_n <- sys.dirty_n + 1;
    let cs = c.cslot in
    if (not c.base_p) && finger_of cs < Array.length sys.dep_ends
       && sys.dep_ends.(head_of cs) >= 0
    then begin
      (* Detach the whole list first: every target is stale once the walk
         is done. Nothing in the recursion links, unlinks or reallocates
         an entry of [c]'s list ([c] is stale, so it is not walked
         again). *)
      let l = sys.deps in
      let s = ref sys.dep_ends.(head_of cs) in
      sys.dep_ends.(head_of cs) <- -1;
      sys.dep_ends.(tail_of cs) <- -1;
      sys.dep_ends.(finger_of cs) <- -1;
      while !s >= 0 do
        let n = l.(next_of !s) in
        l.(prev_of !s) <- unlinked;
        l.(next_of !s) <- unlinked;
        (match sys.tk_tab.(!s).attach with
        | Backs c' -> invalidate sys c'
        | Unattached | Held -> ());
        s := n
      done
    end
  end

let add_currency sys ~name ~owner =
  let cid = fresh_id sys in
  let s = Slots.alloc sys.cur_slots in
  let c =
    {
      cid;
      cslot = s;
      cname = name;
      owner;
      base_p = false;
      issued_head = -1;
      backing_head = -1;
      active_amount = 0;
      alive = true;
      val_cache = 0.;
      unit_cache = 0.;
      cache_ok = false;
      mark = 0;
    }
  in
  sys.cur_tab <- Slots.grow_payload sys.cur_slots sys.cur_tab ~dummy:c;
  sys.cur_tab.(s) <- c;
  c

let make_currency sys ~name =
  if Hashtbl.mem sys.by_name name then raise (Duplicate_name name);
  let c = add_currency sys ~name ~owner:(-1) in
  Hashtbl.replace sys.by_name name c;
  c

(* A thread currency costs one record and one arena slot: no name is
   formatted and nothing is hashed, so spawning and funding a thread stays
   O(1) however many threads exist. *)
let make_thread_currency sys ~thread ~name =
  if thread < 0 then
    invalid_arg "Funding.make_thread_currency: negative thread id";
  add_currency sys ~name ~owner:thread

let find_currency sys name = Hashtbl.find_opt sys.by_name name

let currency_name c =
  if c.owner < 0 then c.cname else Printf.sprintf "thread:%d:%s" c.owner c.cname

let currency_id c = c.cid
let currency_slot c = c.cslot

let currency_generation sys c =
  if c.cslot < 0 then -1 else Slots.gen sys.cur_slots c.cslot

let is_base c = c.base_p

let currencies sys =
  List.rev
    (Slots.fold_live sys.cur_slots ~init:[] ~f:(fun acc s ->
         sys.cur_tab.(s) :: acc))

let live_currency_count sys = Slots.live_count sys.cur_slots

let remove_currency sys c =
  if c.base_p then raise (In_use "base currency cannot be removed");
  if not c.alive then invalid_arg "Funding.remove_currency: already removed";
  if c.issued_head >= 0 then
    raise (In_use (currency_name c ^ " still has issued tickets"));
  if c.backing_head >= 0 then
    raise (In_use (currency_name c ^ " still has backing tickets"));
  c.alive <- false;
  if c.owner < 0 then Hashtbl.remove sys.by_name c.cname;
  Slots.release sys.cur_slots c.cslot;
  c.cslot <- -1

let active_amount c = c.active_amount
let issued_tickets sys c = collect_list iter_issued sys c
let backing_tickets sys c = collect_list iter_backing sys c

let issue sys ~currency ~amount =
  if amount < 0 then invalid_arg "Funding.issue: negative amount";
  if not currency.alive then invalid_arg "Funding.issue: dead currency";
  let tid = fresh_id sys in
  let s = Slots.alloc sys.tk_slots in
  let t =
    {
      tid;
      tkslot = s;
      amount;
      denom = currency;
      attach = Unattached;
      active = false;
      destroyed = false;
    }
  in
  sys.tk_tab <- Slots.grow_payload sys.tk_slots sys.tk_tab ~dummy:t;
  sys.tk_tab.(s) <- t;
  sys.i_prev <- Slots.grow_payload sys.tk_slots sys.i_prev ~dummy:(-1);
  sys.i_next <- Slots.grow_payload sys.tk_slots sys.i_next ~dummy:(-1);
  sys.b_prev <- Slots.grow_payload sys.tk_slots sys.b_prev ~dummy:(-1);
  sys.b_next <- Slots.grow_payload sys.tk_slots sys.b_next ~dummy:(-1);
  link_issued sys currency s;
  t

let amount t = t.amount
let denomination t = t.denom
let ticket_id t = t.tid
let ticket_slot t = t.tkslot

let ticket_generation sys t =
  if t.tkslot < 0 then -1 else Slots.gen sys.tk_slots t.tkslot

let is_active t = t.active
let funds t = match t.attach with Backs c -> Some c | Unattached | Held -> None
let is_held t = t.attach = Held

let check_live t name = if t.destroyed then invalid_arg (name ^ ": destroyed ticket")

(* A ticket's activity flip moves two things: its denomination's active
   amount (hence unit value), and — when the ticket backs a currency — that
   currency's value. Both get invalidated here, so the zero-crossing cascade
   below stales exactly the affected region of the graph. *)
let flip_invalidate sys t =
  invalidate sys t.denom;
  match t.attach with Backs c -> invalidate sys c | Unattached | Held -> ()

(* Activation propagation (paper §4.4): activating a ticket raises its
   denomination's active amount; on a zero -> nonzero transition every
   backing ticket of that currency activates in turn, and symmetrically for
   deactivation. The walks over the backing list are spelled out rather
   than passed to [iter_backing] as partial applications, which would
   allocate a closure on every zero crossing (every thread block/wake). *)
let rec activate_ticket sys t =
  if not t.active then begin
    t.active <- true;
    flip_invalidate sys t;
    let c = t.denom in
    let was_zero = c.active_amount = 0 in
    c.active_amount <- c.active_amount + t.amount;
    if was_zero && c.active_amount > 0 then activate_backing sys c
  end

and activate_backing sys c =
  let s = ref c.backing_head in
  while !s >= 0 do
    let n = sys.b_next.(!s) in
    activate_ticket sys sys.tk_tab.(!s);
    s := n
  done

let rec deactivate_ticket sys t =
  if t.active then begin
    t.active <- false;
    flip_invalidate sys t;
    let c = t.denom in
    let was_positive = c.active_amount > 0 in
    c.active_amount <- c.active_amount - t.amount;
    assert (c.active_amount >= 0);
    if was_positive && c.active_amount = 0 then deactivate_backing sys c
  end

and deactivate_backing sys c =
  let s = ref c.backing_head in
  while !s >= 0 do
    let n = sys.b_next.(!s) in
    deactivate_ticket sys sys.tk_tab.(!s);
    s := n
  done

let set_amount sys t new_amount =
  check_live t "Funding.set_amount";
  if new_amount < 0 then invalid_arg "Funding.set_amount: negative amount";
  if t.active then begin
    flip_invalidate sys t;
    let c = t.denom in
    let old_sum = c.active_amount in
    let new_sum = old_sum - t.amount + new_amount in
    t.amount <- new_amount;
    c.active_amount <- new_sum;
    if old_sum = 0 && new_sum > 0 then activate_backing sys c
    else if old_sum > 0 && new_sum = 0 then deactivate_backing sys c
  end
  else t.amount <- new_amount;
  notify sys

(* A backing edge [currency <- ticket] makes [currency]'s value depend on
   the ticket's denomination. Funding [c] with a ticket denominated in [d]
   is cyclic iff [d]'s value already depends on [c]. Each walk stamps the
   currencies it visits with a fresh epoch, so shared sub-graphs (diamonds)
   are visited once without a per-call visited set. *)
let rec depends_on sys funded epoch c =
  c == funded
  || c.mark <> epoch
     && begin
          c.mark <- epoch;
          let found = ref false in
          let s = ref c.backing_head in
          while (not !found) && !s >= 0 do
            if depends_on sys funded epoch sys.tk_tab.(!s).denom then found := true
            else s := sys.b_next.(!s)
          done;
          !found
        end

let would_cycle sys ~funded ~denom =
  sys.epoch <- sys.epoch + 1;
  depends_on sys funded sys.epoch denom

let fund sys ~ticket ~currency =
  check_live ticket "Funding.fund";
  if not currency.alive then invalid_arg "Funding.fund: dead currency";
  (match ticket.attach with
  | Unattached -> ()
  | Backs _ | Held -> invalid_arg "Funding.fund: ticket already attached");
  if currency.cid = ticket.denom.cid then
    invalid_arg "Funding.fund: ticket cannot fund its own denomination";
  if would_cycle sys ~funded:currency ~denom:ticket.denom then
    raise
      (Cycle
         (Printf.sprintf "funding %s with a ticket denominated in %s"
            (currency_name currency) (currency_name ticket.denom)));
  ticket.attach <- Backs currency;
  link_backing sys currency ticket.tkslot;
  invalidate sys currency;
  if currency.active_amount > 0 then activate_ticket sys ticket;
  notify sys

let unfund sys t =
  check_live t "Funding.unfund";
  match t.attach with
  | Backs c ->
      deactivate_ticket sys t;
      (* after the deactivation, whose flips may still reach [c] through
         the link *)
      unlink_dep sys t.denom t.tkslot;
      unlink_backing sys c t.tkslot;
      t.attach <- Unattached;
      invalidate sys c;
      notify sys
  | Unattached | Held -> invalid_arg "Funding.unfund: ticket not backing"

let hold sys t =
  check_live t "Funding.hold";
  (match t.attach with
  | Unattached | Held -> ()
  | Backs _ -> invalid_arg "Funding.hold: ticket is backing a currency");
  t.attach <- Held;
  activate_ticket sys t;
  notify sys

let suspend sys t =
  check_live t "Funding.suspend";
  if t.attach <> Held then invalid_arg "Funding.suspend: ticket not held";
  deactivate_ticket sys t;
  notify sys

let resume sys t =
  check_live t "Funding.resume";
  if t.attach <> Held then invalid_arg "Funding.resume: ticket not held";
  activate_ticket sys t;
  notify sys

let release sys t =
  check_live t "Funding.release";
  if t.attach <> Held then invalid_arg "Funding.release: ticket not held";
  deactivate_ticket sys t;
  t.attach <- Unattached;
  notify sys

let destroy_ticket sys t =
  check_live t "Funding.destroy_ticket";
  (match t.attach with
  | Backs _ -> unfund sys t
  | Held -> release sys t
  | Unattached -> ());
  unlink_issued sys t.denom t.tkslot;
  Slots.release sys.tk_slots t.tkslot;
  t.tkslot <- -1;
  t.destroyed <- true;
  notify sys

(* --- valuation ----------------------------------------------------------

   Reads revalidate lazily: a stale currency recomputes its value from its
   backing tickets, pulling (and caching) the unit values of their
   denominations on the way down. A quiescent graph is therefore valued
   once, and each mutation only forces recomputation of the currencies it
   actually dirtied. The arithmetic (fold order over the backing edges,
   value/active division) is identical to a from-scratch walk, so cached
   results are bit-for-bit equal to uncached ones. *)

(* The cached floats are boxed (the currency record is not all-float), so
   a store allocates while a read returns the existing box — the property
   the scheduler's allocation-free [account] relies on. A revalidation
   that lands on the value already cached therefore skips the store and
   keeps the old box. Equal is also bit-equal here: the sums and quotients
   are of non-negative terms and never produce -0. or NaN. *)
let rec ensure sys c =
  if not c.cache_ok then begin
    (* Marked valid before the walk, so a (dynamically created, normally
       impossible) cycle terminates instead of looping. *)
    c.cache_ok <- true;
    (* Left fold, head (most recent edge) first: the same float
       accumulation order as the historical list fold. Every backing
       ticket, active or not, joins its denomination's dependents list —
       base's too: its value ignores them, but their flips reach it. *)
    let v = ref 0. in
    let s = ref c.backing_head in
    while !s >= 0 do
      let t = sys.tk_tab.(!s) in
      let d = t.denom in
      if not d.base_p then link_dep sys d !s t.tid;
      if t.active && not c.base_p then
        v := !v +. (float_of_int t.amount *. unit_val sys d);
      s := sys.b_next.(!s)
    done;
    if c.base_p then begin
      let v = float_of_int c.active_amount in
      if v <> c.val_cache then c.val_cache <- v
    end
    else begin
      let v = !v in
      let u = if c.active_amount = 0 then 0. else v /. float_of_int c.active_amount in
      if v <> c.val_cache then c.val_cache <- v;
      if u <> c.unit_cache then c.unit_cache <- u
    end
  end

(* No zero-active shortcut here: a read must leave the currency validated
   (stop-early invalidation relies on "a valid currency has valid
   supports"), and [ensure] already caches unit value 0 in that case. *)
and unit_val sys c =
  if c.base_p then 1.
  else begin
    ensure sys c;
    c.unit_cache
  end

let currency_value sys c =
  ensure sys c;
  c.val_cache

(* The denomination is validated even when the ticket is inactive: a
   consumer that caches this 0 must be told (via a change event) when the
   ticket's activation later makes it worth something, and events only fire
   on valid -> stale flips. *)
let ticket_value sys t =
  let u = unit_val sys t.denom in
  if t.active then float_of_int t.amount *. u else 0.

let unit_value sys c = unit_val sys c

(* From-scratch valuation with a private memo, bypassing the caches: the
   reference implementation [check_invariants] audits the caches against. *)
let uncached_currency_value sys c =
  let memo = Hashtbl.create 32 in
  let rec unit c =
    if c.base_p then 1.
    else if c.active_amount = 0 then 0.
    else
      match Hashtbl.find_opt memo c.cid with
      | Some x -> x
      | None ->
          Hashtbl.replace memo c.cid 0.;
          let x = value c /. float_of_int c.active_amount in
          Hashtbl.replace memo c.cid x;
          x
  and value c =
    if c.base_p then float_of_int c.active_amount
    else begin
      let acc = ref 0. in
      let s = ref c.backing_head in
      while !s >= 0 do
        let t = sys.tk_tab.(!s) in
        if t.active then acc := !acc +. (float_of_int t.amount *. unit t.denom);
        s := sys.b_next.(!s)
      done;
      !acc
    end
  in
  value c

let check_invariants sys =
  let fail fmt = Printf.ksprintf failwith fmt in
  Slots.iter_live sys.cur_slots (fun slot ->
      let c = sys.cur_tab.(slot) in
      if not c.alive then fail "dead currency %s in arena" (currency_name c);
      if c.cslot <> slot then
        fail "currency %s: slot field %d <> arena slot %d" (currency_name c)
          c.cslot slot;
      (* Active amount equals sum of active issued ticket amounts. *)
      let sum = ref 0 in
      iter_issued sys c (fun t -> if t.active then sum := !sum + t.amount);
      if !sum <> c.active_amount then
        fail "currency %s: active_amount %d <> recomputed %d" (currency_name c)
          c.active_amount !sum;
      (* A valid cache must agree exactly with a from-scratch valuation. *)
      if c.cache_ok then begin
        let fresh = uncached_currency_value sys c in
        if c.val_cache <> fresh then
          fail "currency %s: cached value %g <> recomputed %g" (currency_name c)
            c.val_cache fresh;
        let fresh_unit =
          if c.base_p then 1.
          else if c.active_amount = 0 then 0.
          else fresh /. float_of_int c.active_amount
        in
        if (not c.base_p) && c.unit_cache <> fresh_unit then
          fail "currency %s: cached unit value %g <> recomputed %g"
            (currency_name c) c.unit_cache fresh_unit
      end;
      (* Attachment symmetry for backing tickets, plus slot coherence. *)
      iter_backing sys c (fun t ->
          (match t.attach with
          | Backs c' when c'.cid = c.cid -> ()
          | _ ->
              fail "currency %s: backing ticket %d not attached to it"
                (currency_name c) t.tid);
          if t.destroyed then
            fail "currency %s: destroyed backing ticket" (currency_name c);
          (* Propagation: a backing ticket is active iff the funded currency
             has a nonzero active amount. *)
          if t.active <> (c.active_amount > 0) then
            fail "currency %s: backing ticket %d activity %b vs amount %d"
              (currency_name c) t.tid t.active c.active_amount);
      iter_issued sys c (fun t ->
          if t.destroyed then
            fail "currency %s: destroyed issued ticket" (currency_name c);
          if t.tkslot < 0 || not (sys.tk_tab.(t.tkslot) == t) then
            fail "ticket %d: stale arena slot %d" t.tid t.tkslot;
          if t.denom.cid <> c.cid then
            fail "currency %s: issued ticket %d has wrong denomination"
              (currency_name c) t.tid;
          match t.attach with
          | Unattached ->
              if t.active then fail "unattached ticket %d is active" t.tid
          | Held -> ()
          | Backs c' ->
              if not (exists_backing sys c' (fun b -> b.tid = t.tid)) then
                fail "ticket %d claims to back %s but is not listed" t.tid
                  (currency_name c'));
      (* Dependents list: strictly decreasing tids over live [Backs]
         tickets issued here, coherent links, and complete — every backing
         ticket with a valid target is in it. Base keeps none. *)
      let listed = Hashtbl.create 16 in
      if finger_of slot < Array.length sys.dep_ends then begin
        let l = sys.deps in
        let last = ref (-1) and s = ref sys.dep_ends.(head_of slot) in
        while !s >= 0 do
          if Hashtbl.mem listed !s then fail "currency %s: dependents list loops" (currency_name c);
          Hashtbl.replace listed !s ();
          let t = sys.tk_tab.(!s) in
          if c.base_p then fail "base currency has a dependents list";
          if t.destroyed || t.tkslot <> !s || t.denom != c then
            fail "currency %s: dependents slot %d is not a live ticket issued here"
              (currency_name c) !s;
          (match t.attach with
          | Backs _ -> ()
          | Unattached | Held ->
              fail "currency %s: dependent ticket %d is not backing" (currency_name c)
                t.tid);
          if l.(tid_of !s) <> t.tid then
            fail "currency %s: dependents slot %d records tid %d, holds %d"
              (currency_name c) !s l.(tid_of !s) t.tid;
          if l.(prev_of !s) <> !last then
            fail "currency %s: dependents back link broken at ticket %d"
              (currency_name c) t.tid;
          if !last >= 0 && l.(tid_of !last) <= t.tid then
            fail "currency %s: dependents not in decreasing tid at ticket %d"
              (currency_name c) t.tid;
          last := !s;
          s := l.(next_of !s)
        done;
        if sys.dep_ends.(tail_of slot) <> !last then
          fail "currency %s: dependents tail is not the last entry" (currency_name c);
        let f = sys.dep_ends.(finger_of slot) in
        if (f >= 0 || !last >= 0) && not (Hashtbl.mem listed f) then
          fail "currency %s: dependents finger %d is not an entry" (currency_name c) f
      end;
      iter_issued sys c (fun t ->
          let linked = dep_linked sys t.tkslot in
          if linked && not (Hashtbl.mem listed t.tkslot) then
            fail "ticket %d: linked, but not in %s's dependents" t.tid (currency_name c);
          match t.attach with
          | Backs c' when c'.cache_ok && (not c.base_p) && not linked ->
              fail "ticket %d backs valid %s but is not in %s's dependents" t.tid
                (currency_name c') (currency_name c)
          | _ -> ());
      (* Acyclicity: depth-first walk with a white/grey/black marking, so
         shared sub-graphs are visited once instead of once per path. *)
      let color = Hashtbl.create 16 in
      let rec walk c' =
        match Hashtbl.find_opt color c'.cid with
        | Some `Done -> ()
        | Some `On_path -> fail "cycle through currency %s" (currency_name c')
        | None ->
            Hashtbl.replace color c'.cid `On_path;
            iter_backing sys c' (fun b -> walk b.denom);
            Hashtbl.replace color c'.cid `Done
      in
      walk c)

let pp_ticket fmt t =
  Format.fprintf fmt "#%d %d.%s%s%s" t.tid t.amount (currency_name t.denom)
    (if t.active then " [active]" else "")
    (match t.attach with
    | Unattached -> ""
    | Held -> " held"
    | Backs c -> " -> " ^ currency_name c)

let pp_currency sys fmt c =
  Format.fprintf fmt "@[<v 2>currency %s (active %d)@,issued: %a@,backing: %a@]"
    (currency_name c) c.active_amount
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_ticket)
    (issued_tickets sys c)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_ticket)
    (backing_tickets sys c)

let to_dot sys =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph funding {\n  rankdir=TB;\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [shape=box, label=\"%s\\nactive %d\"];\n" c.cid
           (currency_name c) c.active_amount))
    (currencies sys);
  List.iter
    (fun c ->
      iter_issued sys c (fun t ->
          let style = if t.active then "solid" else "dashed" in
          match t.attach with
          | Backs target ->
              Buffer.add_string buf
                (Printf.sprintf "  c%d -> c%d [label=\"%d.%s\", style=%s];\n"
                   c.cid target.cid t.amount (currency_name c) style)
          | Held ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  t%d [shape=ellipse, label=\"ticket %d.%s\"];\n  c%d -> t%d [style=%s];\n"
                   t.tid t.amount (currency_name c) c.cid t.tid style)
          | Unattached -> ()))
    (currencies sys);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_system fmt sys =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_currency sys))
    (currencies sys)
