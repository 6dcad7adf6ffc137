"""repro.resilience — overload protection for the whole job path.

Bounded queues with backpressure, virtual-clock deadlines and runtime
budgets, circuit breakers around NVML probes and runner launches, and a
brownout ladder that degrades GPU mapping for low-benefit tools before
shedding jobs outright.  See ``docs/overload.md``.
"""
