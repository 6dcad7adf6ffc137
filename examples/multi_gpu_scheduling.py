#!/usr/bin/env python
"""The paper's four multi-GPU scheduling cases, with live nvidia-smi.

Reproduces §VI-C interactively: tools request specific GPU minor IDs via
their wrapper's requirement ``version`` tag, jobs overlap, and the
allocation strategies (Process-ID and Process-Allocated-Memory) decide
placement.  After each case the simulated ``nvidia-smi`` console table —
the same artifact as the paper's Figs. 10 and 11 — is printed.

Run:  python examples/multi_gpu_scheduling.py
"""

from repro import build_deployment, register_paper_tools
from repro.gpusim.smi import render_table


#: The multi-GPU cases overlap jobs: each is started and kept running.
UNIT = {"workload": "unit"}


def fresh():
    deployment = build_deployment()
    register_paper_tools(deployment.app)
    return deployment


def case1() -> None:
    print("=" * 70)
    print("Case 1: Racon (requires GPU 0) and Bonito (requires GPU 1)")
    print("=" * 70)
    deployment = fresh()
    deployment.launch_tool("racon", UNIT)
    deployment.launch_tool("bonito", UNIT)
    print(render_table(deployment.gpu_host))


def case2() -> None:
    print("=" * 70)
    print("Case 2: two Bonito instances, both requesting GPU 1")
    print("=" * 70)
    deployment = fresh()
    deployment.launch_tool("bonito", UNIT)
    deployment.launch_tool("bonito", UNIT)
    print("second instance diverted to the idle GPU 0:")
    print(render_table(deployment.gpu_host))
    print("mapper reasoning:", deployment.mapper.last_decision().reason)
    print()


def case3() -> None:
    print("=" * 70)
    print("Case 3: four containerized Racon instances — PID allocation")
    print("=" * 70)
    deployment = fresh()
    deployment.route_tool_to("racon", "docker_dynamic")
    deployment.registry.pull("gulsumgudukbay/racon_dockerfile:latest")
    for i in range(4):
        launched = deployment.launch_tool("racon", UNIT)
        devices = launched.host_process.device_indices
        print(f"  instance {i + 1} (pid {launched.host_process.pid}) "
              f"-> GPU(s) {devices}")
    print()
    print(render_table(deployment.gpu_host))


def case4() -> None:
    print("=" * 70)
    print("Case 4: Racon + 2x Bonito — Process-Allocated-Memory allocation")
    print("=" * 70)
    deployment = fresh()
    deployment.set_allocation_strategy("memory")
    deployment.launch_tool("racon", UNIT)
    bonito1 = deployment.launch_tool("bonito", UNIT)
    # Bonito's resident network (Fig. 10 shows 2734 MiB on its GPU).
    deployment.gpu_host.device(1).alloc(
        2674 * 1024**2, pid=bonito1.host_process.pid
    )
    bonito2 = deployment.launch_tool("bonito", UNIT)
    print(f"second Bonito placed on GPU(s) "
          f"{bonito2.host_process.device_indices} "
          f"(the device with minimum used memory)")
    print("mapper reasoning:", deployment.mapper.last_decision().reason)
    print()
    print(render_table(deployment.gpu_host))


def main() -> None:
    case1()
    case2()
    case3()
    case4()


if __name__ == "__main__":
    main()
