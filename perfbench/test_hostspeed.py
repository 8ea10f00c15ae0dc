"""The host-speed correction divides each operation's wall time by the mean
slowdown of the probes on either side of it.

    python3 -m pytest perfbench/test_hostspeed.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


def test_reference_times_have_slowdown_one():
    assert hostspeed.slowdown(hostspeed.REFERENCE) == pytest.approx(1.0)
    doubled = {k: 2 * v for k, v in hostspeed.REFERENCE.items()}
    assert hostspeed.slowdown(doubled) == pytest.approx(2.0)


def test_timed_uses_the_probes_around_each_operation(monkeypatch):
    factors = iter([1.0, 3.0, 2.0, 4.0, 5.0, 6.0])

    def part_times(passes, parts):
        ref = hostspeed.REFERENCE
        return {**ref, "python": ref["python"] * next(factors)}
    monkeypatch.setattr(hostspeed, "part_times", part_times)
    # each probe reads the clock once, each operation twice
    clock = iter([0.0, 0.0, 6.0, 6.0, 10.0, 16.0, 16.0, 20.0, 20.0, 32.0, 32.0,
                  40.0, 45.0, 45.0])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    log = hostspeed.SpeedLog()
    cube = 1 / 3
    # probes 1.0 and 3.0 (python part only, so slowdowns 1 and 3^(1/3))
    _, wall, ref = log.timed(lambda: "a")
    assert wall == 6.0
    assert ref == pytest.approx(6.0 / ((1.0 + 3.0 ** cube) / 2))
    # back-to-back: shares the 3.0 probe, takes 2.0 after
    _, wall, ref = log.timed(lambda: "b")
    assert ref == pytest.approx(6.0 / ((3.0 ** cube + 2.0 ** cube) / 2))
    # untimed work in between: a fresh probe (4.0) before, 5.0 after
    assert log.untimed(lambda: "c") == "c"
    result, wall, ref = log.timed(lambda: "d")
    assert (result, wall) == ("d", 12.0)
    assert ref == pytest.approx(12.0 / ((4.0 ** cube + 5.0 ** cube) / 2))
    # corrected by a part the probes did not slow: the wall time
    _, wall, ref = log.timed(lambda: "e", parts=("numpy",))
    assert ref == wall == 5.0
    assert len(log.probes) == 6
