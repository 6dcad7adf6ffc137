"""Fault injection: events, plans, the fault plane, and the injector."""

from __future__ import annotations

import json

import pytest

from repro.gpusim.errors import DeviceLostError, NVMLError
from repro.gpusim.faults import (
    SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    InjectionPlan,
    build_scenario,
)
from repro.gpusim.host import make_k80_host
from repro.gpusim.nvml import NvmlLibrary
from repro.gpusim.smi import run_query


class TestFaultEvent:
    def test_device_faults_need_a_device(self):
        for kind in (FaultKind.DEVICE_LOST, FaultKind.DEVICE_RECOVER,
                     FaultKind.ECC_ERRORS):
            with pytest.raises(ValueError):
                FaultEvent(time=1.0, kind=kind)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-0.1, kind=FaultKind.NVML_FLAKE)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind=FaultKind.NVML_FLAKE, count=0)

    def test_roundtrip(self):
        event = FaultEvent(time=3.5, kind=FaultKind.DEVICE_LOST, device=1,
                           xid=79, note="boom")
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestInjectionPlan:
    def test_events_sorted_by_time(self):
        plan = InjectionPlan(name="p", seed=0, events=(
            FaultEvent(time=9.0, kind=FaultKind.NVML_FLAKE),
            FaultEvent(time=1.0, kind=FaultKind.NVML_FLAKE),
        ))
        assert [e.time for e in plan.events] == [1.0, 9.0]

    def test_json_roundtrip(self, tmp_path):
        plan = build_scenario("k80-die-midrun", seed=7)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert InjectionPlan.from_file(path) == plan

    def test_scenarios_deterministic_per_seed(self):
        for name in SCENARIOS:
            assert build_scenario(name, seed=5) == build_scenario(name, seed=5)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("meteor-strike")


class TestFaultPlane:
    def test_nvml_errors_consumed_once(self, host):
        host.faults.inject_nvml_error(NVMLError.NVML_ERROR_TIMEOUT, count=2)
        assert host.faults.take_nvml_error() == NVMLError.NVML_ERROR_TIMEOUT
        assert host.faults.take_nvml_error() == NVMLError.NVML_ERROR_TIMEOUT
        assert host.faults.take_nvml_error() is None
        assert host.faults.nvml_errors_served == 2
        assert not host.faults.pending_nvml_errors
        assert not host.faults.pending_container_failures

    def test_nvml_shim_serves_injected_error(self, host):
        nvml = NvmlLibrary(host)
        nvml.nvmlInit()
        host.faults.inject_nvml_error(NVMLError.NVML_ERROR_UNKNOWN)
        with pytest.raises(NVMLError) as excinfo:
            nvml.nvmlDeviceGetCount()
        assert excinfo.value.code == NVMLError.NVML_ERROR_UNKNOWN
        assert excinfo.value.transient
        assert nvml.nvmlDeviceGetCount() == 2  # consumed: next call is fine

    def test_smi_serves_injected_error(self, host):
        host.faults.inject_nvml_error(NVMLError.NVML_ERROR_GPU_IS_LOST)
        stdout, stderr = run_query(host)
        assert stdout == ""
        assert "Unable to determine the device handle" in stderr
        # Consumed: the next invocation answers normally.
        stdout, stderr = run_query(host)
        assert stderr == ""
        assert stdout


class TestUnhealthyDeviceViews:
    """NVML and nvidia-smi must agree about a lost device."""

    def test_nvml_raises_gpu_is_lost_for_dead_device(self, host):
        nvml = NvmlLibrary(host)
        nvml.nvmlInit()
        handle = nvml.nvmlDeviceGetHandleByIndex(0)
        host.devices[0].mark_failed(now=1.0)
        with pytest.raises(NVMLError) as excinfo:
            nvml.nvmlDeviceGetMemoryInfo(handle)
        assert excinfo.value.code == NVMLError.NVML_ERROR_GPU_IS_LOST

    def test_cuda_calls_raise_device_lost(self, host):
        from repro.gpusim.kernels import KernelTimingModel

        proc = host.launch_process("tool", cuda_visible_devices="0")
        timing = KernelTimingModel(host=host, device=host.devices[0],
                                   pid=proc.pid)
        host.devices[0].mark_failed(now=host.clock.now)
        with pytest.raises(DeviceLostError):
            timing.malloc(1024, tag="x")


class TestFaultInjector:
    def _plan(self):
        return InjectionPlan(name="t", seed=0, events=(
            FaultEvent(time=2.0, kind=FaultKind.ECC_ERRORS, device=0, count=3),
            FaultEvent(time=5.0, kind=FaultKind.DEVICE_LOST, device=0, xid=79),
            FaultEvent(time=6.0, kind=FaultKind.NVML_FLAKE,
                       nvml_code=NVMLError.NVML_ERROR_UNKNOWN),
            FaultEvent(time=7.0, kind=FaultKind.CONTAINER_LAUNCH_FAIL),
            FaultEvent(time=9.0, kind=FaultKind.DEVICE_RECOVER, device=0),
        ))

    def test_events_fire_as_clock_advances(self, host):
        injector = FaultInjector(host, self._plan())
        injector.arm()
        assert injector.fired == []

        host.clock.advance(3.0)
        assert host.devices[0].ecc_errors == 3

        host.clock.advance(2.5)  # past the death
        assert not host.devices[0].healthy
        assert host.devices[0].xid_events  # XID 79 logged

        host.clock.advance(2.0)  # flake + container failure queued
        assert host.faults.pending_nvml_errors or host.faults.pending_container_failures

        host.clock.advance(2.0)  # recovery
        assert host.devices[0].healthy
        assert host.devices[0].ecc_errors == 0  # reset clears counters
        assert len(injector.fired) == 5

    def test_device_death_evicts_processes(self, host):
        # The OS process survives the XID 79 (only its CUDA context is
        # gone), but the device must hold no live contexts afterwards.
        proc = host.launch_process("tool", cuda_visible_devices="0")
        assert proc.pid in host.devices[0].process_pids()
        injector = FaultInjector(host, self._plan())
        injector.arm()
        host.clock.advance(5.5)
        assert proc.pid not in host.devices[0].process_pids()
        host.terminate_process(proc.pid)

    def test_arm_is_idempotent(self, host):
        injector = FaultInjector(host, self._plan())
        injector.arm()
        injector.arm()
        host.clock.advance(3.0)
        assert host.devices[0].ecc_errors == 3  # not doubled

    def test_timeline_records_fired_faults(self, host):
        injector = FaultInjector(host, self._plan())
        injector.arm()
        host.clock.advance(10.0)
        labels = [e.label for e in host.timeline
                  if e.label.startswith("fault_")]
        assert labels == [
            "fault_ecc_errors", "fault_device_lost", "fault_nvml_flake",
            "fault_container_launch_fail", "fault_device_recover",
        ]


class TestWorkloadSpec:
    def test_plan_roundtrip_with_workload(self):
        from repro.gpusim.faults import WorkloadSpec

        plan = InjectionPlan(
            name="with-workload", seed=3,
            events=(FaultEvent(time=1.0, kind=FaultKind.DEVICE_LOST,
                               device=0, xid=79),),
            workload=WorkloadSpec(jobs=3, tools=("racon",), resilient=True,
                                  job_conf_xml="<job_conf/>",
                                  expect="job_loss"),
        )
        rehydrated = InjectionPlan.from_dict(plan.to_dict())
        assert rehydrated.workload == plan.workload
        assert rehydrated == plan

    def test_workload_dict_is_self_contained(self):
        from repro.gpusim.faults import WorkloadSpec

        data = WorkloadSpec(jobs=2).to_dict()
        assert data == {"jobs": 2, "tools": ["racon", "bonito"],
                        "resilient": True}
        assert WorkloadSpec.from_dict(data) == WorkloadSpec(jobs=2)

    def test_plans_without_workload_stay_compatible(self):
        plan = InjectionPlan(name="legacy", seed=0, events=())
        data = plan.to_dict()
        assert "workload" not in data
        assert InjectionPlan.from_dict(data).workload is None
