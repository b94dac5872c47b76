(** Array-based binary min-heap keyed by integer priority, stable for equal
    keys (insertion order wins). Used as the kernel's timer queue.

    Entries are stored flat in parallel key, sequence and value arrays:
    once the arrays have grown, {!push}, {!drop_min}, {!min_key} and
    {!min_elt} allocate nothing. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> key:int -> 'a -> unit
val peek_min : 'a t -> (int * 'a) option
val pop_min : 'a t -> (int * 'a) option

val min_key : 'a t -> int
(** Key of the minimum entry, without allocating. The heap must be
    non-empty (check {!is_empty} first). *)

val min_elt : 'a t -> 'a
(** Value of the minimum entry, without allocating. The heap must be
    non-empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry without building the result pair. The heap
    must be non-empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val iter : 'a t -> (key:int -> 'a -> unit) -> unit
(** Visit every entry in unspecified (heap-internal) order. Used by
    auditors that need to inspect the pending-timer population without
    disturbing it. *)
