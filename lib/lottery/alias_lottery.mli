(** Walker/Vose alias-method lottery: O(1) draws — one uniform deviate, one
    compare, at most two array reads — from preallocated probability/alias
    tables rebuilt lazily in O(n) only when a mutation dirtied them. The
    right backend when weights are quiescent between draws (the common case
    under incremental valuation) and client counts are large. Weights are
    nonnegative ints with an exact int total, as in {!Tree_lottery}; the
    float tables are derived from them afresh at each rebuild.

    Random draws are distribution-exact but do {e not} reproduce
    {!Tree_lottery}'s winner for the same random stream (the alias method
    maps uniform deviates to winners differently); the deterministic
    {!draw_with_value} keeps the shared slot-order prefix-sum semantics via
    a documented O(n) scan. The slot arena mirrors {!Tree_lottery} (LIFO
    free stack, power-of-two capacity). *)

type 'a t
type 'a handle

val create : ?initial_capacity:int -> unit -> 'a t
val add : 'a t -> client:'a -> weight:int -> 'a handle

val remove : 'a t -> 'a handle -> unit
(** Idempotent. *)

val readd : 'a t -> 'a handle -> weight:int -> unit
(** Re-insert a handle previously invalidated by {!remove}, reusing the
    handle record itself (raises [Invalid_argument] if it is still live).
    This is the migration primitive: detaching a client from one structure
    and re-inserting it into another of the same backend costs no handle
    allocation. *)

val clear : 'a t -> unit
(** Remove every client at once (invalidating their handles), keeping the
    allocated capacity for reuse; subsequent adds refill slots from 0 in
    insertion order, exactly like a fresh structure. *)

val set_weight : 'a t -> 'a handle -> int -> unit
val weight : 'a t -> 'a handle -> int
val client : 'a handle -> 'a
val mem : 'a t -> 'a handle -> bool
val total : 'a t -> int
val size : 'a t -> int

val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option

val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
(** Allocation-free draw: the winner's arena slot, or [-1] when the total
    weight is zero (no randomness consumed then). The slot is valid until
    the next mutation; resolve it with {!client_at}. *)

val client_at : 'a t -> int -> 'a
(** Resolve a slot returned by {!draw_slot}. *)

val draw_k : 'a t -> Lotto_prng.Rng.t -> k:int -> 'a array -> int
(** [draw_k t rng ~k out] runs up to [min k (Array.length out)]
    independent lotteries, paying at most one rebuild for the whole batch,
    and writes the winners into [out.(0..r-1)], returning [r] ([0] when
    the total weight is zero). Each draw consumes randomness exactly like
    {!draw}. *)

val draw_with_value : 'a t -> winning:int -> 'a handle option
(** Deterministic draw for a winning value: the client covering that
    value in slot (insertion) order, [None] when [winning >= total]. O(n)
    — the alias tables answer random draws, not positional ones. *)

val iter : 'a t -> ('a handle -> unit) -> unit
(** Slot order (insertion order modulo slot reuse). *)

val to_list : 'a t -> ('a * int) list
