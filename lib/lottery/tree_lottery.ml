type 'a handle = { mutable slot : int; (* -1 once removed *) c : 'a }

(* Weights are nonnegative ints, so every partial sum is exact. Slots are
   unboxed: [weights.(s)] doubles as the occupancy flag with a
   [free_weight] sentinel for vacant slots, and [slots] is a plain handle
   array (filled lazily with the first handle ever added, then overwritten
   slot by slot). The free list is an int-array stack, so add/remove churn
   allocates nothing beyond the handle record itself. *)
let free_weight = -1

type 'a t = {
  mutable tree : int array; (* 1-based Fenwick array of partial sums *)
  mutable weights : int array; (* per-slot weight; free_weight = vacant *)
  mutable slots : 'a handle array; (* [||] until the first add *)
  mutable capacity : int; (* power of two *)
  mutable used : int; (* high-water mark of allocated slots *)
  mutable free : int array; (* stack of vacated slots *)
  mutable free_top : int;
  mutable size : int;
}

(* The total lives in the Fenwick root: [capacity] is always a power of
   two, so node [capacity] covers the whole range [1..capacity]. *)
let total t = t.tree.(t.capacity)

let create ?(initial_capacity = 16) () =
  let cap = max 2 initial_capacity in
  (* round up to a power of two for a clean Fenwick descend *)
  let cap =
    let rec up c = if c >= cap then c else up (c * 2) in
    up 2
  in
  {
    tree = Array.make (cap + 1) 0;
    weights = Array.make cap free_weight;
    slots = [||];
    capacity = cap;
    used = 0;
    free = Array.make cap 0;
    free_top = 0;
    size = 0;
  }

let occupied t s = t.weights.(s) >= 0

let bump t slot delta =
  (* Standard Fenwick point update: add delta to slot (0-based) upward. *)
  let i = ref (slot + 1) in
  while !i <= t.capacity do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let rebuild t =
  Array.fill t.tree 0 (t.capacity + 1) 0;
  for s = 0 to t.used - 1 do
    if t.weights.(s) > 0 then bump t s t.weights.(s)
  done

let grow t =
  let cap = t.capacity * 2 in
  let weights = Array.make cap free_weight in
  Array.blit t.weights 0 weights 0 t.capacity;
  if Array.length t.slots > 0 then begin
    let slots = Array.make cap t.slots.(0) in
    Array.blit t.slots 0 slots 0 t.capacity;
    t.slots <- slots
  end;
  t.weights <- weights;
  t.capacity <- cap;
  t.tree <- Array.make (cap + 1) 0;
  rebuild t

let push_free t s =
  if t.free_top = Array.length t.free then begin
    let free = Array.make (2 * Array.length t.free) 0 in
    Array.blit t.free 0 free 0 t.free_top;
    t.free <- free
  end;
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

(* Place a removed (or fresh) handle into a free slot. *)
let insert t h weight =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.used = t.capacity then grow t;
      let s = t.used in
      t.used <- t.used + 1;
      s
    end
  in
  h.slot <- slot;
  if Array.length t.slots = 0 then t.slots <- Array.make t.capacity h;
  t.slots.(slot) <- h;
  t.weights.(slot) <- weight;
  bump t slot weight;
  t.size <- t.size + 1

let add t ~client ~weight =
  if weight < 0 then invalid_arg "Tree_lottery.add: negative weight";
  let h = { slot = -1; c = client } in
  insert t h weight;
  h

let remove t h =
  if h.slot >= 0 then begin
    let s = h.slot in
    bump t s (-t.weights.(s));
    t.weights.(s) <- free_weight;
    push_free t s;
    t.size <- t.size - 1;
    h.slot <- -1
  end

(* Re-insert a removed handle without allocating a new one: the migration
   primitive. The handle record is reused in place, so callers holding
   [Some h] boxes keep them valid across a remove/readd pair — a migration
   between two structures costs zero minor words in the steady state. *)
let readd t h ~weight =
  if weight < 0 then invalid_arg "Tree_lottery.readd: negative weight";
  if h.slot >= 0 then invalid_arg "Tree_lottery.readd: handle still live";
  insert t h weight

let set_weight t h weight =
  if weight < 0 then invalid_arg "Tree_lottery.set_weight: negative weight";
  if h.slot < 0 then invalid_arg "Tree_lottery.set_weight: removed handle";
  bump t h.slot (weight - t.weights.(h.slot));
  t.weights.(h.slot) <- weight

let clear t =
  for s = 0 to t.used - 1 do
    if occupied t s then t.slots.(s).slot <- -1;
    t.weights.(s) <- free_weight
  done;
  Array.fill t.tree 0 (t.capacity + 1) 0;
  t.used <- 0;
  t.free_top <- 0;
  t.size <- 0

let weight t h = if h.slot < 0 then 0 else t.weights.(h.slot)
let client h = h.c
let mem t h =
  h.slot >= 0
  && h.slot < Array.length t.slots
  && t.weights.(h.slot) >= 0
  && t.slots.(h.slot) == h
let size t = t.size

(* Fenwick tree search: the lowest slot whose prefix sum exceeds the
   winning value. For a winning value in [0, total) that slot holds a
   positive weight. *)
let descend t winning =
  let pos = ref 0 in
  let rest = ref winning in
  let step = ref t.capacity in
  while !step > 0 do
    let next = !pos + !step in
    if next <= t.capacity && t.tree.(next) <= !rest then begin
      rest := !rest - t.tree.(next);
      pos := next
    end;
    step := !step / 2
  done;
  !pos (* 0-based slot of the winner *)

let draw_with_value t ~winning =
  if winning < 0 then invalid_arg "Tree_lottery.draw_with_value: negative";
  if winning >= total t then None else Some t.slots.(descend t winning)

let draw_slot t rng =
  let tot = total t in
  if tot = 0 then -1 else descend t (Lotto_prng.Rng.int_below rng tot)

let client_at t s = t.slots.(s).c

let draw t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.slots.(s)

let draw_client t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.slots.(s).c

let draw_k t rng ~k out =
  if total t = 0 || k <= 0 then 0
  else begin
    let n = min k (Array.length out) in
    for i = 0 to n - 1 do
      out.(i) <- t.slots.(draw_slot t rng).c
    done;
    n
  end

let iter t f =
  for s = 0 to t.used - 1 do
    if occupied t s then f t.slots.(s)
  done

let to_list t =
  let acc = ref [] in
  for s = t.used - 1 downto 0 do
    if occupied t s then acc := (t.slots.(s).c, t.weights.(s)) :: !acc
  done;
  !acc
