"""Figure 8 — multi-GPU support Cases 1 and 2.

Case 1: Racon requires device 0, Bonito device 1; both run in parallel
on their own GPUs "without performance degradation, running in their
original execution times".
Case 2: two instances of Bonito both request GPU 1; the second is
scheduled to the idle GPU 0.
"""

import pytest

from repro.gpusim.smi import process_placement


UNIT = {"workload": "unit"}


def run_cases(fresh_deployment):
    results = {}

    # -- Case 1 ---------------------------------------------------------- #
    dep = fresh_deployment()
    racon = dep.launch_tool("racon", UNIT)
    bonito = dep.launch_tool("bonito", UNIT)
    results["case1_placement"] = process_placement(dep.gpu_host)
    results["case1_pids"] = (racon.host_process.pid, bonito.host_process.pid)
    racon.runner.finish(racon)
    bonito.runner.finish(bonito)
    results["case1_racon_runtime"] = racon.job.metrics.runtime_seconds
    # solo reference run for the no-degradation claim
    solo_dep = fresh_deployment()
    solo = solo_dep.run_tool("racon", UNIT)
    results["solo_racon_runtime"] = solo.metrics.runtime_seconds

    # -- Case 2 ---------------------------------------------------------- #
    dep2 = fresh_deployment()
    first = dep2.launch_tool("bonito", UNIT)
    second = dep2.launch_tool("bonito", UNIT)
    results["case2_placement"] = process_placement(dep2.gpu_host)
    results["case2_pids"] = (first.host_process.pid, second.host_process.pid)
    return results


def test_fig8_multigpu_cases12(benchmark, report, fresh_deployment):
    results = benchmark.pedantic(
        run_cases, args=(fresh_deployment,), rounds=1, iterations=1
    )

    racon_pid, bonito_pid = results["case1_pids"]
    placement1 = results["case1_placement"]
    report.add("Case 1: Racon (wants GPU 0) + Bonito (wants GPU 1), in parallel")
    report.table(
        ["GPU", "PIDs"], [[gpu, pids] for gpu, pids in placement1.items()]
    )
    assert placement1[0] == [racon_pid]
    assert placement1[1] == [bonito_pid]

    # No degradation: concurrent Racon matches its solo runtime.
    report.add(
        f"Racon runtime concurrent {results['case1_racon_runtime']:.2f} s vs "
        f"solo {results['solo_racon_runtime']:.2f} s"
    )
    assert results["case1_racon_runtime"] == pytest.approx(
        results["solo_racon_runtime"], rel=0.01
    )

    first_pid, second_pid = results["case2_pids"]
    placement2 = results["case2_placement"]
    report.add()
    report.add("Case 2: two Bonito instances, both requesting GPU 1")
    report.table(
        ["GPU", "PIDs"], [[gpu, pids] for gpu, pids in placement2.items()]
    )
    assert placement2[1] == [first_pid]
    assert placement2[0] == [second_pid]

    benchmark.extra_info["case1"] = {str(k): v for k, v in placement1.items()}
    benchmark.extra_info["case2"] = {str(k): v for k, v in placement2.items()}
    report.finish()
