import numpy as np
import pytest

from fraclab.lab.config import read_pairs_csv
from fraclab.potential import Quartic, Tabulated, check_wcond


def test_quartic_closed_forms():
    w = Quartic(0.25)  # amplitude 1/4
    assert w.value(0.0) == pytest.approx(0.25)
    assert w.value(1.0) == 0.0 and w.value(-1.0) == 0.0
    assert w.deriv(1.0) == 0.0 and w.deriv(-1.0) == 0.0
    assert w.second(1.0) == pytest.approx(2.0)
    assert w.second(-1.0) == pytest.approx(2.0)
    t = np.linspace(-1, 1, 101)
    assert np.allclose(w.value(t), 0.25 * (1 - t**2) ** 2)
    # derivative consistency, central differences
    eps = 1e-6
    mid = t[1:-1]
    num = (w.value(mid + eps) - w.value(mid - eps)) / (2 * eps)
    assert np.allclose(w.deriv(mid), num, atol=1e-8)


def test_quartic_rejects_out_of_domain_and_bad_amplitude():
    w = Quartic(0.25)
    with pytest.raises(ValueError):
        w.value(1.0001)
    with pytest.raises(ValueError):
        w.deriv(np.array([0.0, -2.0]))
    with pytest.raises(ValueError):
        Quartic(amplitude=0.0)


def test_quartic_amplitude_has_no_default():
    with pytest.raises(TypeError):
        Quartic()


def test_wcond_accepts_quartic_rejects_shifted():
    assert check_wcond(Quartic(0.25)) == ()
    assert check_wcond(Quartic(amplitude=1.0)) == ()
    ts = np.linspace(-1, 1, 9)
    lifted = Tabulated(tuple(ts), tuple(0.25 * (1 - ts**2) ** 2 + 0.1))
    assert check_wcond(lifted) == ("W(+-1) = 0",)


def test_tabulated_matches_dense_quartic_samples():
    ts = np.linspace(-1, 1, 201)
    w = Quartic(0.25)
    tab = Tabulated(tuple(ts), tuple(w.value(ts)))
    probe = np.linspace(-1, 1, 517)
    assert np.allclose(tab.value(probe), w.value(probe), atol=1e-9)
    assert np.allclose(tab.deriv(probe), w.deriv(probe), atol=1e-6)
    assert check_wcond(tab) == ()


def test_tabulated_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        Tabulated((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))  # too few points
    with pytest.raises(ValueError):
        Tabulated((-1.0, 0.5, 0.2, 1.0), (0.0, 1.0, 1.0, 0.0))  # not increasing
    ts = np.linspace(-1, 1, 33)
    w = Quartic(0.25)
    path = tmp_path / "well.csv"
    with open(path, "w") as f:
        f.write("t,W\n")
        for t in ts:
            f.write(f"{float(t)!r},{float(w.value(t))!r}\n")
    tab = Tabulated(*zip(*read_pairs_csv(path)))
    assert tab.ts[0] == -1.0 and tab.ts[-1] == 1.0
    assert tab.value(0.0) == pytest.approx(0.25, abs=1e-6)
