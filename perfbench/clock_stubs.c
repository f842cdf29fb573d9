/* Nanosecond clocks for the benchmark ledger.  CLOCK_MONOTONIC is
   system-wide, so timestamps taken in different replica processes on
   one host are directly comparable. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

static long ns_of(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  (void)unit;
  return Val_long(ns_of(CLOCK_MONOTONIC));
}

value perfbench_cpu_ns(value unit)
{
  (void)unit;
  return Val_long(ns_of(CLOCK_PROCESS_CPUTIME_ID));
}

/* Pin the calling process to one CPU (modulo the CPUs it may use);
   returns the CPU chosen, or -1 where affinity is unavailable. */
value perfbench_pin(value slot)
{
  cpu_set_t allowed, one;
  int n = 0, want, cpu;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &allowed)) n++;
  if (n == 0) return Val_int(-1);
  want = Int_val(slot) % n;
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &allowed) && want-- == 0) break;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return Val_int(-1);
  return Val_int(cpu);
}
