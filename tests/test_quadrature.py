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
            ((value, _, _),) = quadrature._panels(lambda x: x**k + 0j, [lo], [hi])
            want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            return abs(value - want) / abs(want)

        for k in range(23):
            assert one_panel(k, -0.5, 1.5) <= 1e-14
        assert one_panel(24, -1.0, 1.0) > 1e-9

    def test_batch_matches_single_panels(self):
        # one call on panels that are not adjacent, out of order and of unequal widths gives each to the bit
        lo, hi = [0.3, 1.7, 0.9, 0.0], [0.95, 2.0, 1.1, 1e-9]
        assert quadrature._panels(near_pole, lo, hi) == [
            quadrature._panels(near_pole, [a], [b])[0] for a, b in zip(lo, hi)
        ]


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
        # frozen from the sweep rule: value, estimate and panel count to the bit, and the closed form within err
        value, err, n = quadrature.integrate(near_pole, 0.0, 2.0, 1e-10)
        assert (value.real.hex(), value.imag.hex(), err.hex(), n) == (
            "0x1.0000000000010p+0",
            "0x1.91d8ccb71db78p+1",
            "0x1.7756299be0210p-34",
            71,
        )
        F = lambda t: t + cmath.log(1.0 - cmath.exp(ZA - t))
        assert abs(value - (F(2.0) - F(0.0))) <= err

    def test_one_call_per_sweep(self):
        # the first panel alone, then every panel a sweep bisects in one (2k, 15) call
        for f, lo, hi, shapes in [
            (near_pole, 0.0, 2.0, [1, 2, 4, 4, 4, 6, 8, 8, 8, 8, 8, 6, 4]),
            (lambda x: np.exp((1.0 + 3.0j) * x), 0.0, 5.0, [1, 2, 4, 6]),
        ]:
            counted, calls = counting(f)
            _, _, n = quadrature.integrate(counted, lo, hi, 1e-10)
            assert calls == [(k, 15) for k in shapes]
            assert sum(shapes) == n

    def test_sweep_respects_max_panels(self):
        # a sweep takes at most half the panels left, and at least one bisection
        counted, calls = counting(near_pole)
        _, err, n = quadrature.integrate(counted, 0.0, 2.0, 1e-14, max_panels=20)
        assert err > 1e-14
        assert calls == [(k, 15) for k in [1, 2, 4, 8, 4, 2]]
        assert n == 21

    def test_empty_interval(self):
        counted, calls = counting(near_pole)
        assert quadrature.integrate(counted, 1.0, 1.0, 1e-10) == (0j, 0.0, 0)
        assert calls == []
