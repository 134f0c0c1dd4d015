import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_call_through_from_import_is_counted(tracer):
    from gkdvlab import montecarlo
    from gkdvlab.grid import field_from_function, make_grid

    phi = field_from_function(make_grid(16.0, 32), lambda x: np.exp(-(x**2)))
    # montecarlo did `from .spacetime import free_evolution, midpoint_axis`
    montecarlo.free_evolution(phi, montecarlo.midpoint_axis(0.25, 8))
    summary = tracer.summary()
    assert summary["spans"]["spacetime.free_evolution"][0] == 1
    assert summary["spans"]["spacetime.midpoint_axis"][0] == 1
    # its batched inverse FFT is attributed to the enclosing layer
    assert summary["fft"]["spacetime"][:2] == [1, 8 * 32]


def test_every_numpy_transform_is_counted(tracer):
    np.fft.rfft(np.ones(16))
    np.fft.irfft(np.ones(9))
    np.fft.fft2(np.ones((4, 4)))
    summary = tracer.summary()
    assert summary["fft"]["none"][:2] == [3, 16 + 16 + 16]
    assert summary["spans"]["numpy.fft.irfft"][0] == 1


def test_self_time_excludes_child_spans():
    t = Tracer()
    inner = t.wrap("x.inner", lambda: time.sleep(0.02))
    outer = t.wrap("x.outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    spans = t.summary()["spans"]
    calls, inclusive, self_s = spans["x.outer"]
    assert calls == 1 and self_s == pytest.approx(inclusive - spans["x.inner"][1])
    assert 0.01 <= self_s < 0.02 <= inclusive


def test_uninstall_restores_originals():
    import gkdvlab.montecarlo as mc
    import gkdvlab.spacetime as st

    before = (mc.free_evolution, st.free_evolution, np.fft.fft)
    t = Tracer()
    t.install()
    assert mc.free_evolution is st.free_evolution is not before[1]
    t.uninstall()
    assert (mc.free_evolution, st.free_evolution, np.fft.fft) == before
