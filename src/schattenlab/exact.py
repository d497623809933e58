"""Closed forms, in Fractions wherever no Gamma function enters: the
homogeneous moment transfer factor, the Selberg average of a symmetric
polynomial, the volume of the operator-norm ball, and the exact gas and ball
moments, the one place that decides which answers are exact and names them.

A symmetric polynomial is a dict {partition: coefficient} over the power sums
p_lambda = p_lambda1 p_lambda2 ..., the empty partition standing for 1.
"""

import functools
import itertools
import math
from fractions import Fraction

from .ensembles import BETA, ensemble_of

__all__ = ["closed_form_moment", "selberg_average", "opnorm_ball_log_volume", "gas_moments",
           "ball_moments", "PROVENANCE"]

# the provenance a check records per exact gas route; a pipeline's method is "exact-" + route
PROVENANCE = {"gaussian": "gaussian-closed-form", "selberg": "selberg-averages"}

# the largest degree selberg_average expands: the gas moments need 4, and the
# count behind _monomials grows as len(mu)^len(lambda)
_MAX_DEGREE = 4


def closed_form_moment(d, s, l, p):
    """Gamma((d+l+s)/p) / Gamma((d+s)/p), the homogeneous moment transfer factor."""
    if not 0 < p < math.inf:
        raise ValueError("closed_form_moment needs finite p > 0")
    if not (s > -d and l + s > -d):
        raise ValueError("closed_form_moment needs s > -d and l + s > -d")
    return math.exp(math.lgamma((d + l + s) / p) - math.lgamma((d + s) / p))


def opnorm_ball_log_volume(field, n):
    """log |K| of the Full n x n operator-norm ball K over field, D = beta n^2:
    |K| = pi^(D/2) Z_inf / Z_2, Z_q the integral of the singular-value density
    against exp(-||x||_q^q) (the SVD Jacobian cancels against the Frobenius
    ball's), Selberg's integral over Mehta's, a product of Gammas."""
    beta = BETA[field]
    d = beta * n * n
    return 0.5 * d * math.log(math.pi) + math.fsum(
        math.lgamma(1 + j * beta / 2) - math.lgamma(1 + beta / 2 + (n + j - 1) * beta / 2)
        for j in range(n))


def _partitions(k, most=None):
    """The partitions of k in decreasing lexicographic order, which extends
    the dominance order (Gram-Schmidt along any such order gives the Jacks)."""
    most = k if most is None else most
    if k == 0:
        yield ()
    for first in range(min(k, most), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _add(f, g, scale=1):
    """f + scale g."""
    out = dict(f)
    for lam, v in g.items():
        out[lam] = out.get(lam, 0) + scale * v
    return out


def _times(f, g):
    out = {}
    for (lf, vf), (lg, vg) in itertools.product(f.items(), g.items()):
        lam = tuple(sorted(lf + lg, reverse=True))
        out[lam] = out.get(lam, 0) + vf * vg
    return out


def _inner(f, g, gamma):
    """<p_lambda, p_mu> = delta z_lambda gamma^(-len lambda), the Jack inner
    product at alpha = 1/gamma."""
    return sum(v * g.get(lam, 0) * math.prod(lam) / gamma ** len(lam)
               * math.prod(math.factorial(lam.count(i)) for i in set(lam))
               for lam, v in f.items())


@functools.lru_cache(maxsize=None)
def _monomials(k):
    """{mu: m_mu} for the partitions mu of k, from the top down.  p_lambda has
    on m_mu the coefficient #{maps of the parts of lambda onto those of mu
    that sum to mu}, nonzero only for mu dominating lambda, so
    back-substitution from (k) down inverts it."""
    def p_on_m(lam, mu):
        return sum(all(sum(x for x, j in zip(lam, f) if j == i) == m for i, m in enumerate(mu))
                   for f in itertools.product(range(len(mu)), repeat=len(lam)))

    out = {}
    for mu in _partitions(k):
        m = {mu: Fraction(1)}
        for nu, m_nu in out.items():
            m = _add(m, m_nu, -p_on_m(mu, nu))
        out[mu] = {lam: v / p_on_m(mu, mu) for lam, v in m.items()}
    return out


@functools.lru_cache(maxsize=None)
def _jacks(k, gamma):
    """[(kappa, P_kappa, <P_kappa, P_kappa>)] for the partitions of k: the
    Jack polynomials P^(1/gamma), Gram-Schmidt on the monomials from (1^k) up."""
    table = []
    for kappa, m in reversed(_monomials(k).items()):
        jack = m
        for _, q, norm in table:
            jack = _add(jack, q, -_inner(m, q, gamma) / norm)
        table.append((kappa, jack, _inner(jack, jack, gamma)))
    return tuple(table)


def selberg_average(poly, n, a, b, gamma):
    """The average of the symmetric polynomial poly (power sums, degree <= 4)
    under prod x_i^(a-1) (1-x_i)^(b-1) |Delta(x)|^(2 gamma) on [0,1]^n.

    poly is expanded in the Jack polynomials P_kappa^(1/gamma), whose
    averages are Kadell's: P_kappa(1^n) prod_i (a + (n-i) gamma)_{kappa_i} /
    (a + b + (2n-i-1) gamma)_{kappa_i}, rising factorials (Macdonald VI.10).
    """
    a, b, gamma = Fraction(a), Fraction(b), Fraction(gamma)
    total = Fraction(poly.get((), 0))
    for k in {sum(lam) for lam in poly} - {0}:
        if k > _MAX_DEGREE:
            raise ValueError(f"selberg_average expands degree <= {_MAX_DEGREE}, got {k}")
        part = {lam: v for lam, v in poly.items() if sum(lam) == k}
        for kappa, jack, norm in _jacks(k, gamma):
            if len(kappa) > n:  # P_kappa vanishes on n variables
                continue
            at_ones = sum(v * n ** len(lam) for lam, v in jack.items())
            kadell = math.prod((a + (n - i) * gamma + j) / (a + b + (2 * n - i - 1) * gamma + j)
                               for i, part_i in enumerate(kappa, 1) for j in range(part_i))
            total += _inner(part, jack, gamma) / norm * at_ones * kadell
    return total


def _selberg_gas(params):
    """The (a, b, gamma) of the (a, b, c) gas at p = inf as a Selberg density
    in lambda, and sum x^2 and sum x^4 as polynomials in lambda: lambda = x^2
    for a = 2, lambda = (1 + x)/2 for a = 1 with c = 0."""
    gamma = Fraction(params.b, 2)
    if params.a == 2:
        return (Fraction(params.c + 1, 2), 1, gamma), {(1,): 1}, {(2,): 1}

    def power_sum(k):  # sum (2 lambda - 1)^k, with p_0 = n
        return {(j,) if j else (): math.comb(k, j) * 2**j * (-1) ** (k - j) * (1 if j else params.n)
                for j in range(k + 1)}

    return (1, 1, gamma), power_sum(2), power_sum(4)


def gas_moments(params, p):
    """(route, (E x1^4, E x1^2 x2^2, E x1^2)) as Fractions (the pair 0 at
    n = 1) where (family, p) has closed forms, else None: p in {2, inf} for
    a = 2 and for a = 1 with c = 0, the families exact_p2_sample draws.  p = 2
    ("gaussian"): ||x||^2 is Gamma(d/2), and E sum x^4 is identity 1 (a = 2)
    or the Gaussian beta ensemble's (a = 1).  p = inf ("selberg"): Selberg
    averages."""
    n, a, b, c = params.n, params.a, params.b, params.c
    if p not in (2, math.inf) or not (a == 2 or (a == 1 and c == 0)):
        return None
    if p == 2:
        route, s2 = "gaussian", Fraction(params.d, 2)
        quartic = ((Fraction(2 * params.d, n) + 1 - c) * s2 / 2 if a == 2
                   else (3 * s2 + b * ((n - 1) * s2 + (Fraction(n, 2) - s2) / 2)) / 2)
        square = s2 * (s2 + 1)
    else:
        route, (weights, sum_sq, sum_4) = "selberg", _selberg_gas(params)
        s2, quartic, square = (selberg_average(f, n, *weights)
                               for f in (sum_sq, sum_4, _times(sum_sq, sum_sq)))
    cross = (square - quartic) / (n * (n - 1)) if n > 1 else Fraction(0)
    return route, (quartic / n, cross, s2 / n)


def ball_moments(spec):
    """(route, (E v, E v^2)) as Fractions for v = ||T||_2^2 on the uniform
    ball spec where closed forms exist, else None: at p = inf v = k ||x||_2^2
    (k the multiplicity) on every ball's gas route in gas_moments, and at p = 2
    ("radial") v = R^2 with R^dim uniform, so E v = dim/(dim+2), E v^2 = dim/(dim+4)."""
    if math.isinf(spec.p):
        mapping = ensemble_of(spec)
        route, (e4, ec, e2) = gas_moments(mapping.params, spec.p)
        n, k = mapping.params.n, mapping.multiplicity
        return route, (k * n * e2, k * k * n * (e4 + (n - 1) * ec))
    if spec.p != 2:
        return None
    dim = Fraction(spec.dim)
    return "radial", (dim / (dim + 2), dim / (dim + 4))
