(** Tree-based lottery over partial ticket sums (Section 4.2):
    selection and weight updates are O(log n).

    Implemented as a Fenwick (binary indexed) tree of nonnegative integer
    weights with a slot free-list, so clients can join and leave
    dynamically. Integer partial sums are exact: the total is always the
    sum of the live weights, and every winning value in [\[0, total)]
    lands on a positive-weight client. The sum of all weights must stay
    below [2^61] ({!Draw.units} guarantees it). The paper proposes
    this structure for large client counts and as the basis of a distributed
    lottery; the benchmark suite compares it against {!List_lottery}. *)

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
    independent lotteries and writes the winners into [out.(0..r-1)],
    returning [r] ([0] when the total weight is zero). Each draw consumes
    randomness exactly like {!draw}. *)

val draw_with_value : 'a t -> winning:int -> 'a handle option
(** Deterministic draw for a winning value: the client covering that
    value in slot (insertion) order, [None] when [winning >= total].
    Raises [Invalid_argument] on a negative value. *)

val iter : 'a t -> ('a handle -> unit) -> unit
(** Slot order (insertion order modulo slot reuse). *)

val to_list : 'a t -> ('a * int) list
