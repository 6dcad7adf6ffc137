"""simsan: inject real corruption into a GPUHost and assert it is caught.

The session-wide conftest fixtures install simsan for every test, so the
first assertions here also prove the suite-wide wiring works.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitizer as simsan
from repro.analysis.sanitizer import SanitizerError, SimSanitizer
from repro.gpusim.clock import VirtualClock
from repro.gpusim.errors import DoubleFreeError

MIB = 1024 * 1024


def _rule_ids(findings):
    return [f.rule_id for f in findings]


def test_simsan_is_installed_for_the_suite():
    """conftest installs simsan process-wide via GYAN_SIMSAN."""
    assert simsan.current() is not None
    assert simsan.current().installed


def test_injected_leak_is_reported_at_process_exit(host):
    """SIM301: memory owned on a device the teardown never visits."""
    proc = host.launch_process("leaky_tool", cuda_visible_devices="0")
    # The bug: the tool allocates on GPU 1 even though its context lives
    # on GPU 0 only, so terminate_process never reclaims it.
    host.devices[1].memory.alloc(64 * MIB, proc.pid, tag="stale_batch")
    with pytest.raises(SanitizerError) as excinfo:
        host.terminate_process(proc.pid)
    finding = excinfo.value.finding
    assert finding.rule_id == "SIM301"
    assert "stale_batch" in finding.message


def test_clean_process_exit_passes(host):
    proc = host.launch_process("tidy_tool", cuda_visible_devices="0")
    allocation = host.devices[0].memory.alloc(64 * MIB, proc.pid)
    host.devices[0].memory.free(allocation)
    host.terminate_process(proc.pid)  # must not raise
    assert _rule_ids(simsan.current().drain()) == []


def test_double_free_is_recorded(host):
    """SIM302: the second free still raises, and simsan logs it."""
    proc = host.launch_process("df_tool", cuda_visible_devices="0")
    allocation = host.devices[0].memory.alloc(8 * MIB, proc.pid)
    host.devices[0].memory.free(allocation)
    with pytest.raises(DoubleFreeError):
        host.devices[0].memory.free(allocation)
    assert "SIM302" in _rule_ids(simsan.current().drain())


def test_utilization_out_of_bounds_fails_snapshot(host):
    """SIM303: a corrupted utilization counter dies at observation time."""
    host.devices[0].sm_utilization = 150.0
    with pytest.raises(SanitizerError) as excinfo:
        simsan.current().check_device(host.devices[0])
    assert excinfo.value.finding.rule_id == "SIM303"


def test_clock_rewind_is_caught():
    """SIM304: rewinding the virtual clock between observations."""
    san = simsan.current()
    clock = VirtualClock()
    clock.advance(10.0)
    san.check_clock(clock)
    clock._now = 3.0  # simulate the corruption the rule guards against
    with pytest.raises(SanitizerError) as excinfo:
        san.check_clock(clock)
    assert excinfo.value.finding.rule_id == "SIM304"


def test_accounting_corruption_fails_allocator_check(host):
    """SIM305: used > capacity after direct state corruption."""
    allocator = host.devices[0].memory
    allocator._context_overhead[4242] = allocator.capacity + 1
    with pytest.raises(SanitizerError) as excinfo:
        simsan.current().check_allocator(allocator)
    assert excinfo.value.finding.rule_id == "SIM305"
    del allocator._context_overhead[4242]


def test_collect_mode_records_instead_of_raising(host):
    """raise_on_violation=False turns simsan into a diagnostics sweep."""
    san = SimSanitizer(raise_on_violation=False)
    host.devices[0].sm_utilization = -1.0
    host.devices[1].sm_utilization = 400.0
    for device in host.devices:
        san.check_device(device)
    assert _rule_ids(san.violations) == ["SIM303", "SIM303"]
    host.devices[0].sm_utilization = 0.0
    host.devices[1].sm_utilization = 0.0


def test_lost_device_with_live_process_fails_snapshot(host):
    """SIM306: a device marked unhealthy must hold no live contexts."""
    host.launch_process("orphan_tool", cuda_visible_devices="0")
    # The bug: something flips healthy off without the mark_failed
    # teardown, so the process survives on a dead device.
    host.devices[0].healthy = False
    with pytest.raises(SanitizerError) as excinfo:
        simsan.current().check_device(host.devices[0])
    assert excinfo.value.finding.rule_id == "SIM306"
    # Repair so the autouse session sanitizer sees a consistent host.
    host.devices[0].mark_failed()
    simsan.current().drain()


def test_mark_failed_leaves_no_sim306(host):
    """The real failure path kills every context, so snapshots stay clean."""
    proc = host.launch_process("doomed_tool", cuda_visible_devices="1")
    casualties = host.devices[1].mark_failed(now=1.0, xid=79)
    assert proc.pid in casualties
    simsan.current().check_device(host.devices[1])  # must not raise
    assert _rule_ids(simsan.current().drain()) == []


def test_install_is_idempotent_and_uninstall_restores():
    first = simsan.install()
    assert simsan.install() is first  # second install is a no-op
    # Take the wrapped methods down and verify originals come back.
    from repro.gpusim.memory import MemoryAllocator

    wrapped = MemoryAllocator.alloc
    simsan.uninstall()
    try:
        assert MemoryAllocator.alloc is not wrapped
        assert simsan.current() is None
    finally:
        simsan.install()  # restore the suite-wide sanitizer


@pytest.mark.parametrize(
    "value,expected",
    [("1", True), ("true", True), ("on", True), ("", False), ("0", False),
     ("false", False), ("no", False)],
)
def test_enabled_from_env(value, expected):
    assert simsan.enabled_from_env({simsan.SIMSAN_ENV_VAR: value}) is expected


def test_enabled_from_env_unset():
    assert simsan.enabled_from_env({}) is False
