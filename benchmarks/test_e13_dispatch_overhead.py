"""§V claim — GYAN adds no extra scheduling overhead.

Paper: "With the use of GYAN, running GPU-supported tools on Galaxy does
not introduce any extra overhead, because GYAN executes and schedules
jobs to GPUs without adding another layer of software stack."

Two measurements:
* virtual time — the tool-visible clock must not advance during GYAN's
  destination mapping and environment preparation (exactly zero);
* wall time — the real cost of one GYAN mapping decision (rule + usage
  query + allocation), timed here as the best of a few repeats of a
  fixed number of decisions (pytest-benchmark also tables it when
  benchmarking is enabled); it is microseconds-scale, negligible
  against any tool runtime.
"""

import time

REPEATS = 5
CALLS = 200


def test_e13_dispatch_overhead(benchmark, report, fresh_deployment):
    deployment = fresh_deployment()
    job = deployment.app.submit("racon", {"threads": 4, "workload": "unit"})

    def map_once():
        deployment.app.map_destination(job)
        return deployment.mapper.prepare_environment(job)

    def seconds_per_call():
        start = time.perf_counter()
        for _ in range(CALLS):
            map_once()
        return (time.perf_counter() - start) / CALLS

    before = deployment.clock.now
    env = benchmark(map_once)
    per_call = min(seconds_per_call() for _ in range(REPEATS))
    after = deployment.clock.now

    report.add("GYAN dispatch-path overhead")
    report.add(f"virtual clock advanced during mapping: {after - before:.9f} s")
    report.add(f"wall time per mapping decision: {per_call * 1e6:.1f} us")
    report.add("tool-visible overhead: none (mapping happens pre-spawn)")

    assert after == before  # zero virtual (tool-visible) time
    assert env["GALAXY_GPU_ENABLED"] == "true"
    assert per_call < 0.01  # well under 10 ms wall per decision
    report.finish()
