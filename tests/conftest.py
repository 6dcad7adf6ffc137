"""Shared fixtures: hosts, deployments, miniature datasets.

The whole suite runs under the simsan runtime sanitizer
(:mod:`repro.analysis.sanitizer`): every GPU-memory mutation, process
exit and clock advance in every test is invariant-checked, so an
accounting bug anywhere fails loudly at the point of corruption.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import sanitizer as simsan
from repro.core.orchestrator import build_deployment
from repro.gpusim.host import make_k80_host
from repro.tools.bonito.signal import PoreModel, SquiggleSimulator
from repro.tools.executors import register_paper_tools
from repro.tools.mapping import MinimizerMapper
from repro.workloads.generator import corrupted_backbone, simulate_read_set

os.environ.setdefault(simsan.SIMSAN_ENV_VAR, "1")


@pytest.fixture(scope="session", autouse=True)
def _simsan_session():
    """Install simsan for the whole test session (env-gated)."""
    installed = simsan.install_from_env()
    yield
    if installed is not None:
        simsan.uninstall()


@pytest.fixture(autouse=True)
def _simsan_fresh_violations():
    """Start every test with an empty violation log."""
    active = simsan.current()
    if active is not None:
        active.drain()
    yield


@pytest.fixture
def host():
    """A fresh 2-die K80 host (the paper's testbed GPUs)."""
    return make_k80_host()


@pytest.fixture
def deployment():
    """A fully wired GYAN deployment with the paper's tools installed."""
    dep = build_deployment()
    register_paper_tools(dep.app)
    return dep


@pytest.fixture(scope="session")
def small_read_set():
    """A miniature genome + reads (shared; treat as read-only)."""
    return simulate_read_set(
        genome_length=2000, coverage=12, mean_read_length=300, seed=21
    )


@pytest.fixture(scope="session")
def small_polish_inputs(small_read_set):
    """(backbone, reads, mappings) for polishing tests (read-only)."""
    draft = corrupted_backbone(small_read_set, seed=6)
    mapper = MinimizerMapper(draft, k=13, w=5)
    mappings = mapper.map_reads(small_read_set.records)
    return draft, small_read_set.records, mappings


@pytest.fixture(scope="session")
def pore_model():
    """The default 3-mer pore model (read-only)."""
    return PoreModel(k=3, seed=2021)


@pytest.fixture(scope="session")
def squiggle_reads(pore_model):
    """A handful of simulated nanopore reads with truth (read-only)."""
    from repro.workloads.generator import simulate_genome

    simulator = SquiggleSimulator(
        pore_model, samples_per_base=8, dwell_jitter=2, noise_sd_pa=1.0
    )
    genome = simulate_genome(1500, seed=9)
    return simulator.simulate_reads(genome, n_reads=8, mean_length=250, seed=4)


@pytest.fixture
def generated_days(monkeypatch):
    """Every day :func:`~repro.workloads.diurnal.diurnal_batches`
    generates while the test runs, in order."""
    import repro.workloads.diurnal as diurnal

    seen = []
    generate = diurnal.diurnal_batches

    def counted_generate(profile):
        seen.append(generate(profile))
        return seen[-1]

    monkeypatch.setattr(diurnal, "diurnal_batches", counted_generate)
    return seen
