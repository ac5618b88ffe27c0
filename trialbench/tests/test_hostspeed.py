"""Reference seconds: the host probe and the timings scaled by it."""

import pytest

from trialbench import hostspeed
from trialbench.run import timings

NOMINAL = (hostspeed.NOMINAL_WALL_S, hostspeed.NOMINAL_CPU_S)


def scaled(factor: float) -> list[float]:
    return [factor * NOMINAL[0], factor * NOMINAL[1]]


def test_slowdown_is_the_median_of_the_probes():
    probes = [hostspeed.Probe(*scaled(f)) for f in (2.0, 1.5, 40.0)]
    assert hostspeed.slowdown(probes) == pytest.approx((2.0, 2.0))
    with pytest.raises(ValueError):
        hostspeed.slowdown([])


def test_a_probe_times_whole_units_of_work():
    probe = hostspeed.probe(0.0)
    assert 0 < probe.wall <= 2 * hostspeed.MIN_PROBE_S
    assert probe.cpu > 0


def test_timings_divide_every_interval_by_the_run_slowdown():
    # the host ran at half speed around every interval
    setups = [{"wall": 3.0, "probes": [scaled(2.0)]},
              {"wall": 5.0, "probes": [scaled(2.0)]}]
    rounds = [{"ok": 12, "trials": 12, "wall": 4.0, "cpu": 6.0,
               "probes": [scaled(2.0), scaled(2.0)]}]
    clock = timings(setups, rounds, reference=False)
    assert clock == pytest.approx(
        {"trials_per_s": 3.0, "cpu_s_per_trial": 0.5, "setup_s": 4.0})
    reference = timings(setups, rounds, reference=True)
    assert reference == pytest.approx(
        {"trials_per_s": 6.0, "cpu_s_per_trial": 0.25, "setup_s": 2.0})
