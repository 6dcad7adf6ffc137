"""``nvidia-smi`` emulator: the ``-q -x`` XML schema and the console table.

GYAN's multi-GPU logic (paper Pseudocode 1) shells out to
``nvidia-smi -q -x`` and walks the XML with BeautifulSoup to learn which
PIDs run on which GPU minor number.  The offline environment has neither
the binary nor ``bs4``, so this module provides:

* :func:`render_xml` — the real tool's XML document structure, with the
  tags GYAN touches (``nvidia_smi_log``, ``gpu``, ``minor_number``,
  ``fb_memory_usage/{total,used,free}``, ``utilization``, ``processes``/
  ``process_info``/``pid``) rendered faithfully;
* :class:`SmiSoup` — a tiny BeautifulSoup-compatible façade over
  :mod:`xml.etree.ElementTree` exposing ``find`` / ``find_all`` /
  ``.text`` so the ported Pseudocode 1 reads exactly like the paper's;
* :func:`render_table` — the human console table of paper Figs. 10-11.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from html import escape

from repro.gpusim.device import GPUDevice
from repro.gpusim.host import GPUHost
from repro.hotpath import hot_path


# --------------------------------------------------------------------- #
# XML query output (`nvidia-smi -q -x`)
# --------------------------------------------------------------------- #
def _gpu_xml(dev: GPUDevice) -> str:
    procs = []
    for p in dev.compute_processes():
        procs.append(
            "      <process_info>\n"
            f"        <pid>{p.pid}</pid>\n"
            "        <type>C</type>\n"
            f"        <process_name>{escape(p.name, quote=False)}</process_name>\n"
            f"        <used_memory>{dev.memory.used_by(p.pid) // (1024 * 1024)} MiB</used_memory>\n"
            "      </process_info>"
        )
    processes_block = "\n".join(procs) if procs else ""
    return (
        f'  <gpu id="{dev.bus_id}">\n'
        f"    <product_name>{escape(dev.arch.name, quote=False)}</product_name>\n"
        f"    <uuid>{dev.uuid}</uuid>\n"
        f"    <minor_number>{dev.minor_number}</minor_number>\n"
        "    <pci>\n"
        f"      <pci_bus_id>{dev.bus_id}</pci_bus_id>\n"
        "      <pci_gpu_link_info>\n"
        "        <pcie_gen>\n"
        f"          <max_link_gen>{dev.arch.pcie_generation_max}</max_link_gen>\n"
        f"          <current_link_gen>{dev.pcie_generation_current}</current_link_gen>\n"
        "        </pcie_gen>\n"
        "      </pci_gpu_link_info>\n"
        "    </pci>\n"
        "    <fb_memory_usage>\n"
        f"      <total>{dev.fb_total_mib} MiB</total>\n"
        f"      <used>{dev.fb_used_mib} MiB</used>\n"
        f"      <free>{dev.fb_total_mib - dev.fb_used_mib} MiB</free>\n"
        "    </fb_memory_usage>\n"
        "    <utilization>\n"
        f"      <gpu_util>{dev.sm_utilization:.0f} %</gpu_util>\n"
        f"      <memory_util>{dev.mem_utilization:.0f} %</memory_util>\n"
        "    </utilization>\n"
        "    <temperature>\n"
        f"      <gpu_temp>{dev.temperature_c} C</gpu_temp>\n"
        "    </temperature>\n"
        "    <power_readings>\n"
        f"      <power_draw>{dev.power_draw_watts:.2f} W</power_draw>\n"
        f"      <power_limit>{dev.arch.power_limit_watts:.2f} W</power_limit>\n"
        "    </power_readings>\n"
        "    <processes>\n"
        f"{processes_block}\n"
        "    </processes>\n"
        "  </gpu>"
    )


@hot_path
def render_xml(host: GPUHost) -> str:
    """The full ``nvidia-smi -q -x`` document for ``host``.

    Lost devices (XID errors) are not enumerated — exactly how the real
    driver behaves once a GPU falls off the bus, and the mechanism by
    which GYAN's availability logic naturally routes around failures.
    """
    healthy = [d for d in host.devices if d.healthy]
    gpus = "\n".join(_gpu_xml(d) for d in healthy)
    return (
        '<?xml version="1.0" ?>\n'
        "<nvidia_smi_log>\n"
        f"  <timestamp>{host.clock.now:.3f}</timestamp>\n"
        f"  <driver_version>{host.driver_version}</driver_version>\n"
        f"  <cuda_version>{host.cuda_version}</cuda_version>\n"
        f"  <attached_gpus>{len(healthy)}</attached_gpus>\n"
        f"{gpus}\n"
        "</nvidia_smi_log>\n"
    )


def run_query(host: GPUHost, args: str = "-q -x") -> tuple[str, str]:
    """Emulate ``subprocess.Popen("nvidia-smi -q -x")``: (stdout, stderr).

    Only the query form GYAN uses is supported; anything else returns a
    usage error on stderr with empty stdout, like the real binary.

    ``nvidia-smi`` is itself an NVML client, so an injected transient
    NVML failure (see :mod:`repro.gpusim.faults`) surfaces here too: the
    binary exits non-zero with the NVML error on stderr.  One injected
    error fails exactly one invocation.
    """
    code = host.faults.take_nvml_error()
    if code is not None:
        from repro.gpusim.errors import NVMLError

        reason = NVMLError(code, "injected transient failure")
        return "", f"Unable to determine the device handle: {reason}\n"
    normalized = " ".join(args.split())
    if normalized in ("-q -x", "--query --xml-format", "-x -q"):
        return render_xml(host), ""
    return "", f"nvidia-smi: unsupported arguments {args!r} (emulator)\n"


# --------------------------------------------------------------------- #
# BeautifulSoup-compatible façade (the paper parses with bs4)
# --------------------------------------------------------------------- #
class SmiSoup:
    """Minimal BeautifulSoup-alike over an XML string or element.

    Supports the exact call shapes of the paper's Pseudocode 1::

        soup = SmiSoup(xml_text)
        for gpu in soup.find("nvidia_smi_log").find_all("gpu"):
            minor = gpu.find("minor_number").text
            for proc in gpu.find("processes").find_all("process_info"):
                pid = proc.find("pid").text

    ``find`` searches descendants (not just children), returns ``None``
    when absent; ``find_all`` returns a list; ``.text`` is the stripped
    text content.
    """

    def __init__(self, source: str | ET.Element) -> None:
        self._element = ET.fromstring(source) if isinstance(source, str) else source

    @property
    def text(self) -> str:
        """Stripped text content of this node ('' when empty)."""
        return (self._element.text or "").strip()

    def find(self, tag: str) -> "SmiSoup | None":
        """First descendant with the given tag, or the node itself."""
        if self._element.tag == tag:
            return self
        found = next(self._element.iter(tag), None)
        return SmiSoup(found) if found is not None else None

    def find_all(self, tag: str) -> list["SmiSoup"]:
        """All descendants with the given tag, in document order."""
        return [SmiSoup(e) for e in self._element.iter(tag) if e is not self._element]


# --------------------------------------------------------------------- #
# console table (`nvidia-smi` with no args) — paper Figs. 10 and 11
# --------------------------------------------------------------------- #
_BAR = "+-----------------------------------------------------------------------------+"


def render_table(host: GPUHost) -> str:
    """The familiar two-part console table for ``host``.

    Layout follows the paper's Fig. 10: a banner with driver/CUDA
    versions, one two-line block per GPU, then the ``Processes`` section
    listing ``GPU  GI  CI  PID  Type  Process name  GPU Memory Usage``.
    """
    lines = [_BAR]
    lines.append(
        f"| NVIDIA-SMI {host.driver_version:<12} Driver Version: {host.driver_version:<12} "
        f"CUDA Version: {host.cuda_version:<6}    |"
    )
    lines.append("|-------------------------------+----------------------+----------------------+")
    lines.append("| GPU  Name        Persistence-M| Bus-Id        Disp.A | Volatile Uncorr. ECC |")
    lines.append("| Fan  Temp  Perf  Pwr:Usage/Cap|         Memory-Usage | GPU-Util  Compute M. |")
    lines.append("|===============================+======================+======================|")
    for dev in [d for d in host.devices if d.healthy]:
        lines.append(
            f"| {dev.minor_number:>3}  {dev.arch.name:<12}        Off  "
            f"| {dev.bus_id} Off "
            f"| {'0':>20} |"
        )
        mem = f"{dev.fb_used_mib}MiB / {dev.fb_total_mib}MiB"
        mode = {
            "Default": "Default",
            "Exclusive_Process": "E. Process",
            "Prohibited": "Prohibited",
        }[dev.compute_mode.value]
        lines.append(
            f"| N/A  {dev.temperature_c:>3}C   P0  "
            f"{dev.power_draw_watts:>4.0f}W / {dev.arch.power_limit_watts:>3.0f}W "
            f"| {mem:>20} "
            f"| {dev.sm_utilization:>6.0f}%  {mode:>9} |"
        )
        lines.append("+-------------------------------+----------------------+----------------------+")
    lines.append("")
    lines.append(_BAR)
    lines.append("| Processes:                                                                  |")
    lines.append("|  GPU   GI   CI        PID   Type   Process name                  GPU Memory |")
    lines.append("|        ID   ID                                                   Usage      |")
    lines.append("|=============================================================================|")
    any_proc = False
    for dev in [d for d in host.devices if d.healthy]:
        for proc in dev.compute_processes():
            any_proc = True
            mem = f"{dev.memory.used_by(proc.pid) // (1024 * 1024)}MiB"
            lines.append(
                f"|  {dev.minor_number:>3}   N/A  N/A   {proc.pid:>8}      "
                f"C   {proc.name:<28}  {mem:>9} |"
            )
    if not any_proc:
        lines.append("|  No running processes found                                                 |")
    lines.append(_BAR)
    return "\n".join(lines) + "\n"


def process_placement(host: GPUHost) -> dict[int, list[int]]:
    """Convenience map ``{minor_number: [pids]}`` used heavily in tests."""
    return {d.minor_number: d.process_pids() for d in host.devices}


def render_topology(host: GPUHost) -> str:
    """The ``nvidia-smi topo -m`` connectivity matrix.

    Dies on the same board connect through the board's PLX switch
    (``PIX``); dies on different boards traverse the host PCIe bridge
    (``PHB``).  ``X`` marks the diagonal, as the real tool prints.
    """
    devices = [d for d in host.devices if d.healthy]
    names = [f"GPU{d.minor_number}" for d in devices]
    width = max((len(n) for n in names), default=4) + 2
    header = " " * width + "".join(f"{n:>{width}}" for n in names)
    lines = [header]
    for a in devices:
        row = [f"{f'GPU{a.minor_number}':<{width}}"]
        for b in devices:
            if a.minor_number == b.minor_number:
                link = "X"
            elif host.same_board(a.minor_number, b.minor_number):
                link = "PIX"
            else:
                link = "PHB"
            row.append(f"{link:>{width}}")
        lines.append("".join(row))
    lines.append("")
    lines.append("Legend:  X = self   PIX = same board (PLX switch)   "
                 "PHB = across the host PCIe bridge")
    return "\n".join(lines) + "\n"
