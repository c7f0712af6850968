import cmath

import numpy as np

from lerchzeta import quadrature

ZA = 1.0 + 1e-3j  # the pole t = ZA of 1/(1 - e^{ZA - t}) sits 1e-3 above the axis


def near_pole(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 - np.exp(ZA - t))


def counting(f):
    """f, and a list whose length is the number of calls made to it."""
    calls = []

    def counted(x):
        calls.append(x.shape)
        return f(x)

    return counted, calls


class TestPanels:
    def test_degree_22_is_exact(self):
        # K15 integrates polynomials of degree <= 3*7 + 1 exactly; x^24 it does not
        def one_panel(k: int, lo: float, hi: float) -> float:
            ((value, _, _),) = quadrature._panels(lambda x: x**k + 0j, [lo, hi])
            want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            return abs(value - want) / abs(want)

        for k in range(23):
            assert one_panel(k, -0.5, 1.5) <= 1e-14
        assert one_panel(24, -1.0, 1.0) > 1e-9

    def test_batch_matches_single_panels(self):
        # one call on [a, m, b] gives both halves to the bit
        a, b = 0.3, 1.7
        m = 0.5 * (a + b)
        assert quadrature._panels(near_pole, [a, m, b]) == (
            quadrature._panels(near_pole, [a, m]) + quadrature._panels(near_pole, [m, b])
        )


class TestIntegrate:
    def test_complex_closed_form(self):
        k = 1.0 + 3.0j
        value, err, n = quadrature.integrate(lambda x: np.exp(k * x), 0.0, 5.0, 1e-10)
        want = (cmath.exp(5.0 * k) - 1.0) / k
        assert abs(value - want) <= err
        assert err <= 1e-10
        assert n > 1

    def test_near_pole_closed_form(self):
        # antiderivative t + log(1 - e^{ZA - t}); the log's argument stays in Im < 0 on [0, 2]
        value, err, _ = quadrature.integrate(near_pole, 0.0, 2.0, 1e-10)
        F = lambda t: t + cmath.log(1.0 - cmath.exp(ZA - t))
        assert abs(value - (F(2.0) - F(0.0))) <= err <= 1e-9

    def test_near_pole_bits(self):
        # frozen from the per-panel rule, one integrand call per panel
        value, err, n = quadrature.integrate(near_pole, 0.0, 2.0, 1e-10)
        assert (value.real.hex(), value.imag.hex(), err.hex(), n) == (
            "0x1.000000000000ep+0",
            "0x1.91d8ccb71db78p+1",
            "0x1.77519d3283414p-34",
            71,
        )

    def test_one_call_per_bisection(self):
        for f, lo, hi in [(near_pole, 0.0, 2.0), (lambda x: np.exp((1.0 + 3.0j) * x), 0.0, 5.0)]:
            counted, calls = counting(f)
            _, _, n = quadrature.integrate(counted, lo, hi, 1e-10)
            assert len(calls) == 1 + (n - 1) // 2
            assert calls == [(1, 15)] + [(2, 15)] * ((n - 1) // 2)

    def test_empty_interval(self):
        counted, calls = counting(near_pole)
        assert quadrature.integrate(counted, 1.0, 1.0, 1e-10) == (0j, 0.0, 0)
        assert calls == []
