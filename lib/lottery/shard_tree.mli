(** Inter-shard partial-sum tree for per-CPU lottery shards.

    The paper's §4.2 distributed lottery keeps a binary tree of partial
    ticket sums over the nodes and descends it to pick the node holding
    the winning ticket. This module is that inter-node tree; each leaf
    mirrors the live ticket mass of one per-CPU {!Draw.t}, the node's
    local lottery. Together they are the distributed lottery that
    [Lotto_sched.Lottery_sched] runs (one shard per virtual CPU, tested in
    [test/test_smp.ml]): the scheduler picks a steal source
    ticket-weighted, finds the least-loaded shard for placement, and reads
    the global mass — all O(log shards) or O(shards) and allocation-free. *)

type t

val create : shards:int -> t
(** All leaves start at mass 0. Raises on [shards <= 0]. *)

val shards : t -> int

val set : t -> int -> float -> unit
(** [set t i mass] writes shard [i]'s absolute mass, bubbling the delta to
    the root; a no-op when the value is unchanged. *)

val adjust : t -> int -> float array -> unit
(** [adjust t i cell] adds [cell.(0)] to shard [i]'s mass, clamping the
    result at zero: the sums [set t i (max 0. (get t i +. cell.(0)))]
    leaves, bit for bit. The delta travels in a float cell so that a hot
    caller passes it without allocating a boxed float. *)

val get : t -> int -> float

val total : t -> float

val pick : t -> u:float -> int
(** Ticket-weighted shard pick for a uniform deviate [u] in [0, 1): the
    shard covering [u * total] in the partial-sum descent, or [-1] when no
    shard holds mass. Zero-mass shards never win. *)

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
