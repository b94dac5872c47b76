(* The inter-shard coordinator of the sharded CPU lottery: a flat 1-based
   partial-sum binary tree whose leaves are per-shard live ticket masses —
   the inter-node tree of the paper's §4.2 distributed lottery, with each
   node's local lottery an arbitrary [Draw.t] shard. Every operation is
   allocation-free: set bubbles a delta to the root, pick descends from it,
   and both are O(log shards). *)

type t = {
  shards : int;
  leaves : int; (* power of two >= shards *)
  sums : float array; (* 1-based; leaf i lives at [leaves + i] *)
}

let create ~shards =
  if shards <= 0 then invalid_arg "Shard_tree.create: shards <= 0";
  let rec up c = if c >= shards then c else up (c * 2) in
  let leaves = up 1 in
  { shards; leaves; sums = Array.make (2 * leaves) 0. }

let shards t = t.shards

let check t i =
  if i < 0 || i >= t.shards then invalid_arg "Shard_tree: shard out of range"

let get t i =
  check t i;
  t.sums.(t.leaves + i)

let total t = Float.max 0. t.sums.(1)

(* add [delta] to the leaf at [leaf] and every ancestor up to the root *)
let[@inline] bubble t leaf delta =
  if delta <> 0. then begin
    let j = ref leaf in
    while !j >= 1 do
      t.sums.(!j) <- t.sums.(!j) +. delta;
      j := !j / 2
    done
  end

(* absolute write *)
let set t i v =
  check t i;
  if v < 0. then invalid_arg "Shard_tree.set: negative mass";
  let leaf = t.leaves + i in
  bubble t leaf (v -. t.sums.(leaf))

(* Incremental write: add [cell.(0)] to shard [i]'s mass, clamped at zero
   (float deltas can undershoot), and bubble the clamped difference to the
   root — the sums {!set} leaves for [get t i +. cell.(0)]. The delta comes
   in a float cell because a float argument to a call across modules is
   boxed. *)
let adjust t i cell =
  check t i;
  let leaf = t.leaves + i in
  let old = t.sums.(leaf) in
  let v = old +. cell.(0) in
  bubble t leaf ((if v > 0. then v else 0.) -. old)

(* Ticket-weighted shard pick: descend from the root with a winning value
   in [0, total), preferring the left child unless the value falls past its
   subtree sum (or the right subtree is the only live one). [-1] when no
   shard holds mass. *)
let pick t ~u =
  let tot = total t in
  if tot <= 0. then -1
  else begin
    let winning = ref (u *. tot) in
    let i = ref 1 in
    while !i < t.leaves do
      let left = 2 * !i in
      if !winning < t.sums.(left) || t.sums.(left + 1) <= 0. then i := left
      else begin
        winning := !winning -. t.sums.(left);
        i := left + 1
      end
    done;
    !i - t.leaves
  end

(* Least-loaded shard (lowest id on ties): the deterministic placement
   policy. A linear scan — shard counts are CPU counts, not client
   counts. *)
let min_shard t =
  let best = ref 0 in
  let best_mass = ref t.sums.(t.leaves) in
  for i = 1 to t.shards - 1 do
    let m = t.sums.(t.leaves + i) in
    if m < !best_mass then begin
      best := i;
      best_mass := m
    end
  done;
  !best

(* Placement target: least-loaded shard, equal masses broken by the fewer
   [members], then the lowest id. *)
let least_loaded t ~members =
  let best = ref 0 in
  for i = 1 to t.shards - 1 do
    let m = t.sums.(t.leaves + i) and bm = t.sums.(t.leaves + !best) in
    if m < bm || (m = bm && members.(i) < members.(!best)) then best := i
  done;
  !best

(* Most-loaded shard (lowest id on ties): the rebalance source. *)
let max_shard t =
  let best = ref 0 in
  let best_mass = ref t.sums.(t.leaves) in
  for i = 1 to t.shards - 1 do
    let m = t.sums.(t.leaves + i) in
    if m > !best_mass then begin
      best := i;
      best_mass := m
    end
  done;
  !best
