/* CLOCK_MONOTONIC in nanoseconds for the benchmark's own timers. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

/* The CPU cycle counter where there is one, for the few places that
   time individual calls of a few hundred nanoseconds: a few ns a read
   against tens for clock_gettime. Elsewhere, the monotonic clock. */
#if defined(__x86_64__)
#include <x86intrin.h>
#define TICKS() ((intnat)__rdtsc())
#elif defined(__aarch64__)
static inline intnat cntvct(void)
{
  intnat v;
  __asm__ __volatile__("mrs %0, cntvct_el0" : "=r"(v));
  return v;
}
#define TICKS() cntvct()
#else
#define TICKS() (Long_val(perfbench_now_ns(Val_unit)))
#endif

CAMLprim value perfbench_ticks(value unit)
{
  (void)unit;
  return Val_long(TICKS());
}
