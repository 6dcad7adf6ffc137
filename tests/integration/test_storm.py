"""Burst storms end to end: hardened sheds but never loses; stock breaks.

The acceptance contract for the overload layer (``docs/overload.md``):

* hardened deployment — every *admitted* job completes OK; any refusals
  are typed sheds, never silent losses;
* the whole run is byte-for-byte reproducible per seed;
* the stock deployment under the *same storm* demonstrably breaks — the
  delta is the overload layer's contribution.
"""

from __future__ import annotations

import json

import pytest

from repro.resilience.shedding import ShedReason
from repro.workloads.storm import generate_storm_trace, run_storm


class TestStormTrace:
    def test_trace_is_seeded_deterministic(self):
        assert generate_storm_trace(24, seed=3) == generate_storm_trace(24, seed=3)
        assert generate_storm_trace(24, seed=3) != generate_storm_trace(24, seed=4)

    def test_arrivals_strictly_increase(self):
        trace = generate_storm_trace(32, seed=0)
        times = [e.arrival_time for e in trace.entries]
        assert len(times) == 32
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_bursts_arrive_faster_than_calm(self):
        # Wave shape: 6 calm arrivals then 10 at 10x the rate.  The mean
        # gap inside the burst window must be well under the calm mean.
        trace = generate_storm_trace(16, seed=0)
        times = [e.arrival_time for e in trace.entries]
        gaps = [b - a for a, b in zip(times, times[1:])]
        calm = sum(gaps[:5]) / 5
        burst = sum(gaps[6:15]) / 9
        assert burst < calm / 2

    @pytest.mark.parametrize("kwargs", [
        {"n_jobs": 0},
        {"base_interarrival_s": 0.0},
        {"burst_factor": 0.5},
        {"calm_jobs": 0},
        {"burst_jobs": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            generate_storm_trace(**kwargs)


class TestHardenedStorm:
    @pytest.fixture(scope="class")
    def result(self):
        return run_storm(jobs=48, seed=0, hardened=True)

    def test_zero_admitted_losses(self, result):
        assert result.crashed is None
        assert result.lost_admitted == 0
        assert result.crashed is None and result.lost_admitted == 0
        assert result.completed_ok == result.admitted

    def test_the_storm_actually_overloaded(self, result):
        # If nothing was refused or redirected, the trace never filled a
        # queue and this test proves nothing.
        assert result.shed_total > 0
        assert result.redirects > 0
        assert result.brownout_peak_level > 0

    def test_sheds_are_typed(self, result):
        valid = {reason.value for reason in ShedReason}
        assert set(result.shed) <= valid
        assert all(count > 0 for count in result.shed.values())

    def test_ledger_identity_holds(self, result):
        assert (result.admitted + result.shed_total + result.never_submitted
                == result.jobs_requested)

    def test_json_is_byte_stable(self, result):
        assert result.to_json() == run_storm(jobs=48, seed=0).to_json()

    def test_serialisation_shape(self, result):
        data = json.loads(result.to_json())
        assert data["schema"] == "gyan.storm/v1"
        assert data["hardened"] is True
        assert data["shed_total"] == sum(data["shed"].values())
        assert list(data["shed"]) == sorted(data["shed"])


class TestStockStorm:
    @pytest.fixture(scope="class")
    def result(self):
        return run_storm(jobs=48, seed=0, hardened=False)

    def test_stock_breaks_under_the_same_storm(self, result):
        assert result.crashed is not None or result.lost_admitted > 0
        assert result.crashed is not None or result.lost_admitted > 0

    def test_stock_never_sheds(self, result):
        # No admission control: a stock deployment cannot refuse work,
        # it can only lose it.
        assert result.shed == {}

    def test_hardened_beats_stock(self, result):
        hardened = run_storm(jobs=48, seed=0, hardened=True)
        assert hardened.completed_ok > result.completed_ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ledger_identity_holds(self, seed):
        # The job whose mapping crashed never reached a runner: it is
        # counted in never_submitted, not dropped from the ledger.
        result = run_storm(jobs=48, seed=seed, hardened=False)
        assert result.crashed is not None
        assert (result.admitted + result.shed_total + result.never_submitted
                == result.jobs_requested)


class TestStormCli:
    def test_hardened_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["storm", "--jobs", "48", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "lost (admitted):    0" in out

    def test_stock_exit_one(self, capsys):
        from repro.cli import main

        assert main(["storm", "--jobs", "48", "--seed", "0",
                     "--no-hardening"]) == 1

    def test_json_format_round_trips(self, capsys):
        from repro.cli import main

        assert main(["storm", "--jobs", "16", "--seed", "0",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hardened"] is True
        assert data["lost_admitted"] == 0

    def test_shed_fraction_gate(self, capsys):
        from repro.cli import main

        # seed-0/48 sheds some jobs; a zero tolerance must fail the run
        # even though nothing was lost.
        assert main(["storm", "--jobs", "48", "--seed", "0",
                     "--max-shed-fraction", "0.0"]) == 1

    def test_invalid_trace_exit_two(self, capsys):
        from repro.cli import main

        assert main(["storm", "--jobs", "0"]) == 2
        assert "storm:" in capsys.readouterr().err
