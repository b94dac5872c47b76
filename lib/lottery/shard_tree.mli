(** Inter-shard partial-sum tree for per-CPU lottery shards.

    The paper's §4.2 distributed lottery keeps a binary tree of partial
    ticket sums over the nodes and descends it to pick the node holding
    the winning ticket. This module is that inter-node tree; each leaf
    mirrors the live ticket mass of one per-CPU {!Draw.t}, the node's
    local lottery. Together they are the distributed lottery that
    [Lotto_sched.Lottery_sched] runs (one shard per virtual CPU, tested in
    [test/test_smp.ml]): the scheduler picks a steal source
    ticket-weighted, finds the least-loaded shard for placement, and reads
    the global mass — all O(log shards) or O(shards) and allocation-free.
    Masses are int ticket units ({!Draw.units}), so every partial sum is
    exact. *)

type t

val create : shards:int -> t
(** All leaves start at mass 0. Raises on [shards <= 0]. *)

val shards : t -> int

val set : t -> int -> int -> unit
(** [set t i mass] writes shard [i]'s absolute mass (in {!Draw.units}),
    bubbling the difference to the root. Raises [Invalid_argument] on a
    negative mass. *)

val adjust : t -> int -> int -> unit
(** [adjust t i delta] adds [delta] to shard [i]'s mass. Raises
    [Invalid_argument] when the mass would go negative: masses are exact,
    so that can only be a caller's bookkeeping bug. *)

val get : t -> int -> int

val total : t -> int
(** Exactly the sum of the leaves. *)

val pick : t -> winning:int -> int
(** Ticket-weighted shard pick: the shard covering the winning value in
    [\[0, total)] in shard order (draw it with
    [Lotto_prng.Rng.int_below rng (total t)]), or [-1] when [winning >=
    total] — in particular when no shard holds mass. Zero-mass shards
    never win. Raises [Invalid_argument] on a negative value. *)

val min_shard : t -> int
(** Least-loaded shard, lowest id on ties — the deterministic
    ticket-weighted placement target. *)

val least_loaded : t -> members:int array -> int
(** Least-loaded shard, ties broken by the smaller [members.(i)] (the
    caller's per-shard thread count), then the lowest id — the placement
    target. A burst of placements at equal (e.g. all-zero) mass thus
    spreads round-robin instead of landing on shard 0. *)

val max_shard : t -> int
(** Most-loaded shard, lowest id on ties — the rebalance source. *)
