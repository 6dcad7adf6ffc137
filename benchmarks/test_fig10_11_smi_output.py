"""Figures 10 and 11 — the nvidia-smi console outputs.

Fig. 10 shows the console during Case 1 (Racon on GPU 0 idle-ish at
63 MiB, Bonito on GPU 1 at 2734 MiB / 95 % utilisation); Fig. 11 shows
Case 3's process table: six racon_gpu rows at 60 MiB each, three per
GPU, with the third/fourth instances appearing on both devices.
"""


from repro.gpusim.smi import render_table


UNIT = {"workload": "unit"}


def run_render(fresh_deployment):
    # -- Fig. 10: Case 1 state ------------------------------------------ #
    dep = fresh_deployment()
    dep.launch_tool("racon", UNIT)
    bonito = dep.launch_tool("bonito", UNIT)
    # Bonito's resident model + active kernels (Fig. 10: 2734 MiB, 95 %).
    dep.gpu_host.device(1).alloc(2674 * 1024**2, pid=bonito.host_process.pid)
    dep.gpu_host.device(1).sm_utilization = 95.0
    fig10 = render_table(dep.gpu_host)

    # -- Fig. 11: Case 3 state ------------------------------------------ #
    dep3 = fresh_deployment()
    dep3.route_tool_to("racon", "docker_dynamic")
    dep3.registry.pull("gulsumgudukbay/racon_dockerfile:latest")
    for _ in range(4):
        dep3.launch_tool("racon", UNIT)
    fig11 = render_table(dep3.gpu_host)
    return fig10, fig11


def test_fig10_11_smi_output(benchmark, report, fresh_deployment):
    fig10, fig11 = benchmark.pedantic(
        run_render, args=(fresh_deployment,), rounds=1, iterations=1
    )
    report.add("--- Fig. 10 (Case 1) ---")
    report.add(fig10)
    report.add("--- Fig. 11 (Case 3 process table) ---")
    report.add(fig11)

    # Fig. 10 banner and per-device rows.
    assert "NVIDIA-SMI 455.45.01" in fig10
    assert "CUDA Version: 11.1" in fig10
    assert "2734MiB / 11441MiB" in fig10
    assert "95%" in fig10
    assert "/usr/bin/racon_gpu" in fig10 and "/usr/bin/bonito" in fig10

    # Fig. 11: six racon_gpu process rows at 60 MiB, three per GPU.
    rows = [line for line in fig11.splitlines() if "racon_gpu" in line]
    assert len(rows) == 6
    assert all("60MiB" in row for row in rows)
    gpu0_rows = [r for r in rows if r.split()[1] == "0"]
    gpu1_rows = [r for r in rows if r.split()[1] == "1"]
    assert len(gpu0_rows) == 3 and len(gpu1_rows) == 3

    report.finish()
