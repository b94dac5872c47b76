(* The inter-shard coordinator of the sharded CPU lottery: a flat 1-based
   partial-sum binary tree whose leaves are per-shard live ticket masses —
   the inter-node tree of the paper's §4.2 distributed lottery, with each
   node's local lottery an arbitrary [Draw.t] shard. Masses are int ticket
   units, so every inner node is exactly the sum of its leaves. Every
   operation is allocation-free: adjust bubbles a delta to the root, pick
   descends from it, and both are O(log shards). *)

type t = {
  shards : int;
  leaves : int; (* power of two >= shards *)
  sums : int array; (* 1-based; leaf i lives at [leaves + i] *)
}

let create ~shards =
  if shards <= 0 then invalid_arg "Shard_tree.create: shards <= 0";
  let rec up c = if c >= shards then c else up (c * 2) in
  let leaves = up 1 in
  { shards; leaves; sums = Array.make (2 * leaves) 0 }

let shards t = t.shards

let check t i =
  if i < 0 || i >= t.shards then invalid_arg "Shard_tree: shard out of range"

let get t i =
  check t i;
  t.sums.(t.leaves + i)

let total t = t.sums.(1)

(* Incremental write: add [delta] to the leaf and every ancestor up to the
   root. *)
let adjust t i delta =
  check t i;
  let leaf = t.leaves + i in
  if t.sums.(leaf) + delta < 0 then invalid_arg "Shard_tree: negative mass";
  let j = ref leaf in
  while !j >= 1 do
    t.sums.(!j) <- t.sums.(!j) + delta;
    j := !j / 2
  done

let set t i v = adjust t i (v - get t i)

(* Ticket-weighted shard pick: descend from the root, going right past a
   left subtree whose mass does not exceed the winning value. *)
let pick t ~winning =
  if winning < 0 then invalid_arg "Shard_tree.pick: negative";
  if winning >= total t then -1
  else begin
    let rest = ref winning in
    let i = ref 1 in
    while !i < t.leaves do
      let left = 2 * !i in
      if !rest < t.sums.(left) then i := left
      else begin
        rest := !rest - t.sums.(left);
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
  for i = 1 to t.shards - 1 do
    if t.sums.(t.leaves + i) < t.sums.(t.leaves + !best) then best := i
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
  for i = 1 to t.shards - 1 do
    if t.sums.(t.leaves + i) > t.sums.(t.leaves + !best) then best := i
  done;
  !best
