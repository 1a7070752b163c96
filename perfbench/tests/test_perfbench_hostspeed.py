import signal
import time

import pytest

from perfbench import hostspeed


def test_sampler_probes_while_work_runs_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * hostspeed.INTERVAL_S:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) >= 3


def test_corrected_time_scales_with_the_sampled_speed():
    speed = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    # The probes took twice their reference time: the host ran at half speed.
    speed.samples = [(1.0, 2 * ref), (2.0, 2 * ref)]
    assert speed.corrected(10.0, 0.0, 10.0) == pytest.approx((10.0 - 4 * ref) / 2)
    # Only the probes inside the interval count.
    assert speed.corrected(1.0, 1.5, 2.5) == pytest.approx((1.0 - 2 * ref) / 2)
    with pytest.raises(ValueError):
        speed.corrected(1.0, 5.0, 6.0)
