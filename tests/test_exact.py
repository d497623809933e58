import math
import subprocess
import sys
from fractions import Fraction

import pytest

from schattenlab import exact
from schattenlab import moments as mo
from schattenlab.ensembles import EnsembleParams

_A2_FAMILIES = ((2, 1, 0), (2, 2, 1), (2, 4, 3), (2, 1, 1), (2, 2, 0), (2, 2, 2), (2, 3, 0))
_A1_FAMILIES = ((1, 1, 0), (1, 2, 0), (1, 4, 0))


def _aomoto_jack_reference(params):
    """(E y_1, E y_1 y_2, E sum y^2) of the (2, b, c) gas at p = inf, y = x^2,
    from the two special cases of Kadell's average: Aomoto's product for
    E y_1 ... y_m and the hand-expanded Jack P_(2) = sum y^2 + w e_2."""
    n = params.n
    alpha, gamma = Fraction(params.c + 1, 2), Fraction(params.b, 2)

    def aomoto(m):
        out = Fraction(1)
        for i in range(1, m + 1):
            out *= (alpha + (n - i) * gamma) / (alpha + 1 + (2 * n - i - 1) * gamma)
        return out

    w = 2 / (1 + 1 / gamma)
    a1, b1 = alpha + (n - 1) * gamma, alpha + 1 + (2 * n - 2) * gamma
    jack = (n + Fraction(n * (n - 1), 2) * w) * a1 * (a1 + 1) / (b1 * (b1 + 1))
    y1y2 = aomoto(2) if n > 1 else Fraction(0)
    return aomoto(1), y1y2, jack - w * Fraction(n * (n - 1), 2) * y1y2


@pytest.mark.parametrize("abc", _A2_FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_jack_averages_reproduce_aomoto_and_p2(abc, n):
    params = EnsembleParams(*abc, n)
    y1, y1y2, sum_sq = _aomoto_jack_reference(params)
    assert exact.gas_moments(params, math.inf) == ("selberg", (sum_sq / n, y1y2, y1))


def test_a1_averages_pinned():
    # (1,4,0) at n=3: E||x||^2, E||x||^4 and E sum x^4
    _, (x4, cross, x2) = exact.gas_moments(EnsembleParams(1, 4, 0, 3), math.inf)
    assert (3 * x2, 3 * x4 + 6 * cross, 3 * x4) == (
        Fraction(18, 11), Fraction(1181, 429), Fraction(557, 429))


@pytest.mark.parametrize("abc", _A2_FAMILIES[:3] + _A1_FAMILIES)
def test_selberg_weights_planted_fault_misses_the_oracle(abc):
    # planted fault: gamma = b in place of b/2, the exponent of |Delta| doubled;
    # E||x||^2 alone cannot show it where a = b (E y = 1/2 for every gamma)
    params = EnsembleParams(*abc, 3)
    oracle = mo.quadrature_moments(params, math.inf, ["norm2_sq", "norm2_4"])
    (a, b, gamma), sum_sq, _ = exact._selberg_gas(params)
    square = exact._times(sum_sq, sum_sq)
    for poly, fid in ((sum_sq, "norm2_sq"), (square, "norm2_4")):
        right = float(exact.selberg_average(poly, 3, a, b, gamma))
        assert right == pytest.approx(oracle[fid].value, rel=1e-12)
    wrong = float(exact.selberg_average(square, 3, a, b, 2 * gamma))
    assert wrong != pytest.approx(oracle["norm2_4"].value, rel=1e-3)


def test_selberg_average_rejects_degree_above_four():
    with pytest.raises(ValueError, match="degree <= 4"):
        exact.selberg_average({(5,): 1}, 3, 1, 1, Fraction(1, 2))


def test_import_builds_no_jack_table():
    # the tables are built at the first p=inf average, never at import
    code = ("import schattenlab, schattenlab.cli; from schattenlab import exact; "
            "print(exact._jacks.cache_info().currsize, exact._monomials.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_closed_form_moment_lives_only_in_exact():
    import schattenlab

    assert schattenlab.closed_form_moment is exact.closed_form_moment
    assert not hasattr(mo, "closed_form_moment")
    assert not hasattr(mo, "gas_moments")
