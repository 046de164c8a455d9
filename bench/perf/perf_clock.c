/* CLOCK_MONOTONIC in nanoseconds.  Unix.gettimeofday only resolves
   microseconds, too coarse for the ~10 us requests the serve workload
   times one by one. */

#include <time.h>
#include <caml/mlvalues.h>

value perf_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
