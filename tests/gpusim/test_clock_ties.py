"""Property tests for the clock's same-instant tie-break contract.

The determinism contract DET403 pins (and ``docs/determinism.md``
documents): callbacks scheduled at the same virtual instant fire
ordered by explicit tie-break key first, then strictly by registration
order.  500 seeded registration shuffles guard the registration-order
half; the key half gets its own adversarial orderings.
"""

from __future__ import annotations

import random

import pytest

from repro.gpusim.clock import VirtualClock


def test_same_instant_callbacks_fire_in_registration_order_500_shuffles():
    instant = 42.0
    labels = [f"cb{i}" for i in range(8)]
    for seed in range(500):
        order = list(labels)
        random.Random(seed).shuffle(order)
        clock = VirtualClock()
        fired: list[str] = []
        for label in order:
            clock.call_at(instant, lambda now, lbl=label: fired.append(lbl))
        clock.advance_to(instant)
        assert fired == order, f"seed {seed}: {fired} != {order}"


def test_keyed_ties_fire_in_key_order_regardless_of_registration():
    keys = [f"k{i:02d}" for i in range(8)]
    for seed in range(50):
        order = list(keys)
        random.Random(seed).shuffle(order)
        clock = VirtualClock()
        fired: list[str] = []
        for key in order:
            clock.call_at(7.0, lambda now, k=key: fired.append(k), key=key)
        clock.advance_to(7.0)
        assert fired == sorted(keys), f"seed {seed}: {fired}"


def test_keyed_before_unkeyed_is_key_string_order():
    # The empty key sorts before every non-empty key, so unkeyed timers
    # fire ahead of keyed ones at the same instant — part of the heap
    # ordering contract, pinned here so a refactor cannot drift it.
    clock = VirtualClock()
    fired: list[str] = []
    clock.call_at(1.0, lambda now: fired.append("keyed"), key="a")
    clock.call_at(1.0, lambda now: fired.append("unkeyed"))
    clock.advance_to(1.0)
    assert fired == ["unkeyed", "keyed"]


def test_same_key_falls_back_to_registration_order():
    clock = VirtualClock()
    fired: list[str] = []
    for label in ("first", "second", "third"):
        clock.call_at(3.0, lambda now, lbl=label: fired.append(lbl), key="same")
    clock.advance_to(3.0)
    assert fired == ["first", "second", "third"]


def test_mixed_instants_never_interleave():
    for seed in range(50):
        rng = random.Random(seed)
        registrations = [(when, i) for when in (1.0, 2.0, 3.0) for i in range(4)]
        rng.shuffle(registrations)
        clock = VirtualClock()
        fired: list[tuple[float, int]] = []
        for when, i in registrations:
            clock.call_at(when, lambda now, w=when, j=i: fired.append((w, j)))
        clock.advance_to(3.0)
        # Instants in time order; within one instant, registration order.
        expected: list[tuple[float, int]] = []
        for when in (1.0, 2.0, 3.0):
            expected.extend(r for r in registrations if r[0] == when)
        assert fired == expected, f"seed {seed}"


@pytest.mark.parametrize("key", ["", "fault:0001"])
def test_timer_handle_exposes_key(key):
    clock = VirtualClock()
    handle = clock.call_at(1.0, lambda now: None, key=key)
    assert handle.key == key
