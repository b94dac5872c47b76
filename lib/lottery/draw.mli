(** One draw structure, many resources.

    Every lottery in the system — CPU scheduling, mutex/condition/semaphore
    waiter picks, disk, I/O bandwidth, the packet switch, inverse memory —
    draws through this interface, so the backing structure is a deployment
    choice rather than a per-subsystem fork. There are three:

    - {!List_lottery}, the paper's §4.2 move-to-front list: O(n) draw;
    - {!Tree_lottery}, the §4.2 partial-sum tree: O(log n) draw and update;
    - {!Alias_lottery}, Walker/Vose alias tables: O(1) draw while weights
      are quiescent.

    The §4.2 distributed lottery is one such structure per CPU coordinated
    by {!Shard_tree} (see [Lotto_sched.Lottery_sched]).

    {b Integer tickets.} Weights are nonnegative ints and every total is an
    exact int sum, as the paper's tickets and partial sums are: a total
    never drifts from the sum of its live weights, and the winning value is
    [Rng.int_below rng total]. Float weights (currency values, compensated
    values, inverse-lottery factors) enter through {!units}, the one place
    they are quantized: [2^14] units per ticket, a resolution of
    [6.1e-5] tickets, saturating at {!max_units} = [2^44] units ([2^30]
    tickets, about [1.07e9]). A positive weight never rounds to zero
    units, so any client holding tickets can win (§2). Saturation keeps
    the total of fewer than [2^17] (131072) saturated clients below
    [2^61], the largest bound [Rng.int_below] draws from; weights below
    the cap leave proportionally more room.

    {!S} is the signature the structures conform to; {!t} is a dispatching
    wrapper chosen at runtime with {!of_mode}; {!backend} packs a
    conforming structure as a first-class module for functor-style use. *)

val units_per_ticket : int
(** [2^14]: the units one ticket is worth. *)

val max_units : int
(** [2^44]: the saturation point of {!units}. *)

val units : float -> int
(** [units w] is the weight [w] (in tickets) in fixed-point units: [w]
    times {!units_per_ticket}, rounded to the nearest int, at least [1]
    when [w > 0] and at most {!max_units}. Raises [Invalid_argument] on a
    negative or NaN weight. *)

val tickets : int -> float
(** [tickets u] is [u] units in tickets, for display and reporting. *)

(** The draw-structure contract (paper §4.2). Weights are nonnegative
    ints; zero-weight clients never win; [draw] returns [None] (without
    consuming randomness) when the total weight is zero. *)
module type S = sig
  type 'a t
  type 'a handle

  val create : unit -> 'a t
  (** A structure with that backend's default configuration. *)

  val add : 'a t -> client:'a -> weight:int -> 'a handle
  val remove : 'a t -> 'a handle -> unit

  val readd : 'a t -> 'a handle -> weight:int -> unit
  (** Re-insert a removed handle, reusing the handle record — the
      allocation-free migration primitive (see {!readd} on the wrapper). *)

  val mem : 'a t -> 'a handle -> bool

  val clear : 'a t -> unit
  (** Remove every client at once (invalidating their handles), keeping the
      structure (and any allocated capacity) for reuse. *)

  val set_weight : 'a t -> 'a handle -> int -> unit
  val weight : 'a t -> 'a handle -> int
  val client : 'a handle -> 'a
  val total : 'a t -> int
  val size : 'a t -> int
  val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
  val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option

  val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
  (** Allocation-free draw: the winner as a nonnegative backend token
      (arena slot for the flat backends), or [-1] when the total weight is
      zero (no randomness consumed then). Valid until the next mutation;
      resolve with {!client_at}. *)

  val client_at : 'a t -> int -> 'a
  (** Resolve a token returned by {!draw_slot}. *)

  val draw_k : 'a t -> Lotto_prng.Rng.t -> k:int -> 'a array -> int
  (** [draw_k t rng ~k out] runs up to [min k (Array.length out)]
      independent lotteries — paying any lazy rebuild once for the whole
      batch — writing winners into [out.(0..r-1)] and returning [r] ([0]
      when the total weight is zero). Each draw consumes randomness
      exactly like {!draw}; backends with draw-dependent state (the
      move-to-front list) apply it per draw. *)

  val draw_with_value : 'a t -> winning:int -> 'a handle option
  (** Deterministic draw: the client covering the winning value in scan
      order, [None] when [winning >= total]. *)

  val iter : 'a t -> ('a handle -> unit) -> unit
end

type mode =
  | List  (** move-to-front list, O(n) draw — the paper's prototype *)
  | Tree  (** Fenwick partial-sum tree, O(log n) draw and update *)
  | Alias
      (** Walker/Vose alias method: O(1) draw from lazily rebuilt
          probability/alias tables — allocation-free while weights are
          quiescent; random draws are distribution-exact but not
          winner-identical to [Tree] for the same stream *)

val backend : mode -> (module S)
(** The conforming structure for a mode, as a first-class module. *)

(** {1 Runtime-dispatched wrapper}

    ['a t] hides which structure is behind a draw site, so one code path
    serves every backend (this is what the scheduler and the resource
    managers use). *)

type 'a t
type 'a handle

val of_mode : mode -> 'a t

val of_list : 'a List_lottery.t -> 'a t
(** Wrap an existing structure (e.g. to pick a non-default list order). *)

val of_tree : 'a Tree_lottery.t -> 'a t
val of_alias : 'a Alias_lottery.t -> 'a t
val mode : 'a t -> mode

val add : 'a t -> client:'a -> weight:int -> 'a handle
(** Raises [Invalid_argument] on negative weights. Weights are units
    (see {!units}). *)

val remove : 'a t -> 'a handle -> unit
(** Idempotent. *)

val readd : 'a t -> 'a handle -> weight:int -> unit
(** Re-insert a handle previously invalidated by {!remove} into [t] —
    which may be a {e different} structure of the same backend than the
    one it was removed from. The handle record (and any [Some handle] box
    the caller holds) is reused in place, so moving a client between two
    per-CPU shards is O(remove) + O(insert) with zero allocation on the
    flat backends. Raises [Invalid_argument] if the handle is still live
    or the backend differs. *)

val mem : 'a t -> 'a handle -> bool
(** Whether the handle is currently live in {e this} structure — false for
    a removed handle (until {!readd}) and for a handle living in a
    different structure, which is what lets the sharding audit prove a
    migrated thread is in exactly one shard. *)

val clear : 'a t -> unit
(** Remove every client at once (invalidating their handles), keeping the
    structure for reuse — the cheap way to recycle a scratch draw between
    ephemeral lotteries (e.g. mutex-waiter picks). *)

val set_weight : 'a t -> 'a handle -> int -> unit
val weight : 'a t -> 'a handle -> int
val client : 'a handle -> 'a
val total : 'a t -> int
val size : 'a t -> int

val draw : 'a t -> Lotto_prng.Rng.t -> 'a handle option
(** [None] when the structure is empty or all weights are zero (no
    randomness is consumed in that case). *)

val draw_client : 'a t -> Lotto_prng.Rng.t -> 'a option

val draw_slot : 'a t -> Lotto_prng.Rng.t -> int
(** Allocation-free draw through the wrapper: one dispatch, an int out, no
    options. [-1] when the total weight is zero (no randomness consumed in
    that case); otherwise a backend token valid until the next mutation,
    resolved with {!client_at}. This is the hot path the scheduler and the
    resource managers use per decision. *)

val client_at : 'a t -> int -> 'a
(** Resolve a token returned by {!draw_slot}. *)

val draw_k : 'a t -> Lotto_prng.Rng.t -> k:int -> 'a array -> int
(** Batch draw: up to [min k (Array.length out)] independent lotteries,
    paying any lazy rebuild once for the whole batch, winners written into
    the caller's scratch array; returns how many were drawn ([0] when the
    total weight is zero). *)

val draw_with_value : 'a t -> winning:int -> 'a handle option
val iter : 'a t -> ('a handle -> unit) -> unit

val comparisons : 'a t -> int option
(** Cumulative list entries examined ([None] for non-list backends): the
    paper's search-length metric. *)
