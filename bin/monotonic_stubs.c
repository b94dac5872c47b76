/* A monotonic nanosecond clock for lottosim --profile. The phases it
   times last tens to hundreds of nanoseconds, below the resolution of a
   gettimeofday-based clock. Allocation-free: the result is an immediate. */

#include <time.h>
#include <caml/mlvalues.h>

value lotto_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
