(** Scheduler phase profiler: where the per-slice budget goes.

    Splits each scheduling slice's {e host-machine} cost into four phases —
    ticket {e valuation} (funding-graph flush), lottery {e draw},
    {e dispatch} (continuation resume, i.e. the thread's own slice), and
    event {e publish} (bus fan-out) — each accumulated into an {!Hdr}
    histogram of nanoseconds. The kernel times dispatch and publish; the
    scheduler times valuation and draw inside [select] (the kernel cannot
    see past that call).

    The clock is injected so [lib/obs] needs no [unix] dependency: pass any
    monotonic nanosecond counter ([lottosim] passes a noalloc
    [clock_gettime(CLOCK_MONOTONIC)] stub).
    The instrumented path is two clock reads and one {!Hdr.record} per
    phase occurrence — zero allocation, and entirely skipped when no
    profiler is installed. *)

type phase = Valuation | Draw | Dispatch | Publish

type t

val create : clock:(unit -> int) -> unit -> t
(** [clock] must be monotonic, in nanoseconds (any fixed unit works; the
    rendering labels assume ns). *)

val start : t -> int
(** Read the clock. Pair with {!stop}. *)

val stop : t -> phase -> int -> unit
(** [stop t phase t0] records [clock () - t0] into [phase]'s histogram. *)

val hdr : t -> phase -> Hdr.t
(** The live histogram for [phase] (do not mutate; {!Hdr.copy} to keep). *)

val phase_name : phase -> string
(** ["valuation"] / ["draw"] / ["dispatch"] / ["publish"]. *)

val summary : t -> string
(** Text table: per-phase count, total ms, and p50/p90/p99 µs to two
    decimals (10 ns). *)
