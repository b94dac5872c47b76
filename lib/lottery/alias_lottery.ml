(* Walker/Vose alias-method lottery: O(1) draws from a pair of preallocated
   tables (an acceptance probability and an alias slot per live client),
   rebuilt lazily in O(n) only when a mutation dirtied them. Weights and
   the total are exact ints; only the tables are float, and each rebuild
   derives them afresh from the ints. The rebuild
   scratch (small/large work stacks, scaled weights) is preallocated too,
   so the steady state — quiescent weights, draw after draw — allocates
   nothing. The slot arena mirrors {!Tree_lottery} (LIFO free stack,
   [free_weight] sentinel, power-of-two capacity), so handles and slot
   assignment behave identically across the flat backends. *)

type 'a handle = { mutable slot : int; (* -1 once removed *) c : 'a }

let free_weight = -1

type 'a t = {
  mutable weights : int array; (* per-slot weight; free_weight = vacant *)
  mutable slots : 'a handle array; (* [||] until the first add *)
  mutable capacity : int; (* power of two *)
  mutable used : int; (* high-water mark of allocated slots *)
  mutable free : int array; (* stack of vacated slots *)
  mutable free_top : int;
  mutable size : int;
  mutable total : int;
  (* alias tables over the live positive-weight slots, as dense buckets *)
  mutable prob : float array; (* bucket -> acceptance threshold in [0,1] *)
  mutable alias : int array; (* bucket -> alias *slot* (not bucket) *)
  mutable bucket_slot : int array; (* bucket -> arena slot *)
  mutable nbuckets : int;
  mutable scaled : float array; (* rebuild scratch: weight * m / total *)
  mutable small : int array; (* rebuild scratch: under-full buckets *)
  mutable large : int array; (* rebuild scratch: over-full buckets *)
  mutable built : bool;
}

let create ?(initial_capacity = 16) () =
  let cap = max 2 initial_capacity in
  let cap =
    let rec up c = if c >= cap then c else up (c * 2) in
    up 2
  in
  {
    weights = Array.make cap free_weight;
    slots = [||];
    capacity = cap;
    used = 0;
    free = Array.make cap 0;
    free_top = 0;
    size = 0;
    total = 0;
    prob = Array.make cap 0.;
    alias = Array.make cap 0;
    bucket_slot = Array.make cap 0;
    nbuckets = 0;
    scaled = Array.make cap 0.;
    small = Array.make cap 0;
    large = Array.make cap 0;
    built = true;
  }

let occupied t s = t.weights.(s) >= 0

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
  t.prob <- Array.make cap 0.;
  t.alias <- Array.make cap 0;
  t.bucket_slot <- Array.make cap 0;
  t.scaled <- Array.make cap 0.;
  t.small <- Array.make cap 0;
  t.large <- Array.make cap 0;
  t.built <- false

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
  t.total <- t.total + weight;
  t.size <- t.size + 1;
  t.built <- false

let add t ~client ~weight =
  if weight < 0 then invalid_arg "Alias_lottery.add: negative weight";
  let h = { slot = -1; c = client } in
  insert t h weight;
  h

let remove t h =
  if h.slot >= 0 then begin
    let s = h.slot in
    t.total <- t.total - t.weights.(s);
    t.weights.(s) <- free_weight;
    push_free t s;
    t.size <- t.size - 1;
    h.slot <- -1;
    t.built <- false
  end

(* Re-insert a removed handle without allocating a new one (the migration
   primitive; see {!Tree_lottery.readd}). *)
let readd t h ~weight =
  if weight < 0 then invalid_arg "Alias_lottery.readd: negative weight";
  if h.slot >= 0 then invalid_arg "Alias_lottery.readd: handle still live";
  insert t h weight

let set_weight t h weight =
  if weight < 0 then invalid_arg "Alias_lottery.set_weight: negative weight";
  if h.slot < 0 then invalid_arg "Alias_lottery.set_weight: removed handle";
  t.total <- t.total + (weight - t.weights.(h.slot));
  t.weights.(h.slot) <- weight;
  t.built <- false

let clear t =
  for s = 0 to t.used - 1 do
    if occupied t s then t.slots.(s).slot <- -1;
    t.weights.(s) <- free_weight
  done;
  t.used <- 0;
  t.free_top <- 0;
  t.size <- 0;
  t.total <- 0;
  t.nbuckets <- 0;
  t.built <- true

let weight t h = if h.slot < 0 then 0 else t.weights.(h.slot)
let client h = h.c
let mem t h =
  h.slot >= 0
  && h.slot < Array.length t.slots
  && t.weights.(h.slot) >= 0
  && t.slots.(h.slot) == h
let total t = t.total
let size t = t.size

(* Vose's stable O(n) table construction. Buckets are the live positive
   weight slots in slot order; each ends with an acceptance threshold and
   an alias, so a draw is one uniform deviate, one compare, at most two
   array reads. Leftover buckets on either stack get threshold 1 (they are
   exactly full modulo float error). *)
let rebuild t =
  let m = ref 0 in
  for s = 0 to t.used - 1 do
    if t.weights.(s) > 0 then begin
      t.bucket_slot.(!m) <- s;
      incr m
    end
  done;
  let m = !m in
  t.nbuckets <- m;
  if m > 0 then begin
    let scale = float_of_int m /. float_of_int t.total in
    let nsmall = ref 0 and nlarge = ref 0 in
    for b = 0 to m - 1 do
      let p = float_of_int t.weights.(t.bucket_slot.(b)) *. scale in
      t.scaled.(b) <- p;
      if p < 1. then begin
        t.small.(!nsmall) <- b;
        incr nsmall
      end
      else begin
        t.large.(!nlarge) <- b;
        incr nlarge
      end
    done;
    while !nsmall > 0 && !nlarge > 0 do
      decr nsmall;
      let s = t.small.(!nsmall) in
      let l = t.large.(!nlarge - 1) in
      t.prob.(s) <- t.scaled.(s);
      t.alias.(s) <- t.bucket_slot.(l);
      let rest = t.scaled.(l) +. t.scaled.(s) -. 1. in
      t.scaled.(l) <- rest;
      if rest < 1. then begin
        (* the donor dropped below full: move it to the small stack *)
        decr nlarge;
        t.small.(!nsmall) <- l;
        incr nsmall
      end
    done;
    while !nlarge > 0 do
      decr nlarge;
      let b = t.large.(!nlarge) in
      t.prob.(b) <- 1.;
      t.alias.(b) <- t.bucket_slot.(b)
    done;
    while !nsmall > 0 do
      (* only reachable through float error; treat as exactly full *)
      decr nsmall;
      let b = t.small.(!nsmall) in
      t.prob.(b) <- 1.;
      t.alias.(b) <- t.bucket_slot.(b)
    done
  end;
  t.built <- true

let draw_slot t rng =
  if t.total = 0 then -1
  else begin
    if not t.built then rebuild t;
    let u =
      float_of_int (Lotto_prng.Rng.bits53 rng) /. float_of_int (1 lsl 53)
    in
    let x = u *. float_of_int t.nbuckets in
    let b = int_of_float x in
    let b = if b >= t.nbuckets then t.nbuckets - 1 else b in
    if x -. float_of_int b < t.prob.(b) then t.bucket_slot.(b) else t.alias.(b)
  end

let client_at t s = t.slots.(s).c

let draw t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.slots.(s)

let draw_client t rng =
  let s = draw_slot t rng in
  if s < 0 then None else Some t.slots.(s).c

(* Deterministic draws keep the slot-order prefix-sum semantics shared by
   every backend; the alias tables cannot answer them in O(1), so this is a
   documented O(n) scan — it serves the equivalence tests and replayers,
   not the hot path. *)
let draw_with_value t ~winning =
  if winning < 0 then invalid_arg "Alias_lottery.draw_with_value: negative";
  let acc = ref 0 in
  let found = ref (-1) in
  let s = ref 0 in
  while !found < 0 && !s < t.used do
    let w = t.weights.(!s) in
    if w > 0 then begin
      acc := !acc + w;
      if !acc > winning then found := !s
    end;
    incr s
  done;
  if !found < 0 then None else Some t.slots.(!found)

let draw_k t rng ~k out =
  if t.total = 0 || k <= 0 then 0
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
