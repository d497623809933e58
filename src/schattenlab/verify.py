"""One checker per identity, inequality or asymptotic claim about the gas
densities and the Schatten balls.  Every checker returns a CheckReport; the
suite runner aggregates them for the CLI.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matrixlab as ml
from . import moments as mo
from . import samplers as sp
from .ensembles import BETA, EnsembleParams, SchattenSpec, ensemble_of
from .gammafn import gamma_grid, gamma_ratio
from .util import batch_means, batch_means_cov, delta_se

__all__ = [
    "CheckReport",
    "identity_suite_for",
    "check_int_by_parts",
    "check_zeta_bounds",
    "check_holder_band",
    "check_gamma_gap_positive",
    "check_gamma_sandwich",
    "check_gamma_discrepancy",
    "check_entry_identities",
    "check_neg_correlation_threshold",
    "check_thinshell_large_p",
    "check_orders_of_magnitude",
    "check_sigma_band_hit_and_run",
    "check_hermitian_split",
    "check_antisym_normalization",
    "check_entry_correlations",
    "check_isotropic_constant_limit",
    "report_k2_isotropy",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: measured sides, tolerance, verdict."""

    claim_id: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float
    method: str
    provenance: str
    details: dict = field(default_factory=dict)

    def to_record(self, nested=False):
        """The record as written: details spread into it, or with nested=True
        kept whole under one "details" key."""
        rec = {
            "record": "check",
            "claim_id": self.claim_id,
            "passed": bool(self.passed),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "tolerance": _jsonable(self.tolerance),
            "method": self.method,
            "provenance": self.provenance,
        }
        if nested:
            rec["details"] = _jsonable(self.details)
        else:
            rec.update({k: _jsonable(v) for k, v in self.details.items()})
        return rec


def _jsonable(v):
    """v with numpy scalars and arrays made plain, and every non-finite float
    spelled "inf", "-inf" or "nan", so a record is strict JSON."""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _p_tag(p):
    return "inf" if math.isinf(p) else f"{p:g}"


def _ens_tag(params):
    return f"({params.a},{params.b},{params.c}),n={params.n}"


# ---------------------------------------------------------------------------
# moment identities (a = 2 families)

def _identity_sides(params, p, which):
    """Functional combinations (lhs_terms, rhs_terms) as (coeff, Functional) lists."""
    if params.a != 2:
        raise ValueError("the moment identities require a = 2")
    if math.isinf(p):
        raise ValueError("the p * M_p(...) term is undefined at p = inf")
    d, n, c = params.d, params.n, params.c
    if which == 1:
        lhs = [((2 * d + (1 - c) * n) / n, mo.norm_sq())]
        rhs = [(p, mo.abs_pow_sum(p + 2))]
    elif which == 2:
        lhs = [((2 * d + (1 - c) * n) / n, mo.norm_sq_sq())]
        rhs = [(p, mo.norm_sq_times_abs_pow(p + 2)), (-2.0, mo.abs_pow_sum(4))]
    else:
        lhs = [((2 * d + (3 - c) * n) / n, mo.abs_pow_sum(4))]
        rhs = [(p, mo.abs_pow_sum(p + 4)), (-(d - (c + 1) * n), mo.pair_sq())]
    return lhs, rhs


def _closeness(claim_id, lhs, rhs, tol, details):
    """Oracle verdict: |lhs - rhs| <= tol * max(1, |lhs|, |rhs|)."""
    tol_eff = tol * max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        claim_id=claim_id,
        passed=abs(lhs - rhs) <= tol_eff,
        lhs=lhs,
        rhs=rhs,
        tolerance=tol_eff,
        method="quadrature",
        provenance="quadrature-oracle",
        details=details,
    )


def _z(num, se):
    """num / se, the one z behind every 3-sigma verdict.  NaN when se is not
    finite, so no 3-sigma comparison can pass without an error bar; a
    vanishing se gives +-inf, or 0 when num is 0 too."""
    if not math.isfinite(se):
        return math.nan
    if se > 0:
        return num / se
    return math.copysign(math.inf, num) if num != 0 else 0.0


def _mc_report(claim, value, reference, se, ess, side, provenance, details=None, method="mc",
               ok=True):
    """Monte Carlo verdict on z = (value - reference) / se: side 0 needs
    |z| <= 3, side -1 needs z <= -3 and side +1 needs z >= 3 (a NaN z fails
    all three), and ok any further condition.  The tolerance is 3 se; the
    details end with z and ess."""
    z = _z(value - reference, se)
    return CheckReport(
        claim_id=claim,
        passed=bool(ok) and (abs(z) <= 3.0 if side == 0 else side * z >= 3.0),
        lhs=value,
        rhs=reference,
        tolerance=3.0 * se,
        method=method,
        provenance=provenance,
        details={**(details or {}), "z": z, "ess": ess},
    )


def _mean_z(values):
    """z of the batch-means mean of a sample path against 0."""
    mean, se, _ = batch_means(values)
    return _z(mean, se)


def _relation_reports(params, p, relations, tol):
    """Oracle verdicts on relations (claim_id, lhs_terms, rhs_terms) from one
    quadrature call over their functionals, one report each with the residual
    and the oracle error bound."""
    funcs = {f.name: f for _, lhs, rhs in relations for _, f in lhs + rhs}
    ests = mo.quadrature_moments(params, p, list(funcs.values()))
    reports = []
    for claim, lhs_terms, rhs_terms in relations:
        lhs = sum(coef * ests[f.name].value for coef, f in lhs_terms)
        rhs = sum(coef * ests[f.name].value for coef, f in rhs_terms)
        bound = sum(abs(coef) * ests[f.name].std_err for coef, f in lhs_terms + rhs_terms)
        reports.append(_closeness(claim, lhs, rhs, tol,
                                  {"residual": lhs - rhs, "oracle_error_bound": bound}))
    return reports


def _mc_relation_report(claim, lhs_terms, rhs_terms, x):
    """|z| <= 3 verdict on the batch-means mean of lhs - rhs over shared draws x."""
    diff = np.zeros(len(x))
    for coef, f in lhs_terms:
        diff += coef * f.fn(x)
    for coef, f in rhs_terms:
        diff -= coef * f.fn(x)
    mean, se, eff = batch_means(diff)
    return _mc_report(claim, mean, 0.0, se, eff, 0, "shared-draw-difference")


def identity_suite_for(params, p, tol=1e-5, method="auto", budget=200_000, seed=0):
    """The three moment identities: the degree-2 identity
    ((2d+(1-c)n)/n) M(||x||_2^2) = p M(||x||_{p+2}^{p+2}), the degree-4 one
    with the -2 M(||x||_4^4) correction and the quartic one with the pair
    cross-moment term.

    method "quadrature" checks them on one oracle call, "mc" on one set of
    budget gas draws with |z| <= 3; "auto" takes quadrature for n up to
    moments.ORACLE_MAX_N and MC above.
    """
    if method not in ("auto", "quadrature", "mc"):
        raise ValueError(f"method must be 'auto', 'quadrature' or 'mc', got {method!r}")
    relations = [(f"identity-{which}[{_ens_tag(params)},p={_p_tag(p)}]",
                  *_identity_sides(params, p, which)) for which in (1, 2, 3)]
    if method == "auto":
        method = "quadrature" if params.n <= mo.ORACLE_MAX_N else "mc"
    if method == "quadrature":
        return _relation_reports(params, p, relations, tol)
    x = sp.gas_sample(params, p, budget, seed).points
    return [_mc_relation_report(*relation, x) for relation in relations]


def check_int_by_parts(params, p, xi=2, f_id="one", tol=1e-5):
    """Integration-by-parts identity for general a, via the quadrature oracle.

    (xi+c+1) M(f sum|x_i|^xi) = p M(||x||_{xi+p}^{xi+p} f)
        - M(sum |x_i|^xi x_i df/dx_i) - a b M(f * pair ratio sum).
    """
    if math.isinf(p):
        raise ValueError("undefined at p = inf")
    claim = f"int-by-parts[{_ens_tag(params)},p={_p_tag(p)},xi={xi},f={f_id}]"
    n, c, a, b = params.n, params.c, params.a, params.b
    pr = mo.pair_ratio(a, xi)
    if f_id == "one":
        lhs_f = mo.abs_pow_sum(xi)
        rhs_terms = [(p, mo.abs_pow_sum(xi + p)), (-a * b, pr)]
    elif f_id == "norm2_sq":
        lhs_f = mo.norm_sq_times_abs_pow(xi)
        rhs_terms = [
            (p, mo.norm_sq_times_abs_pow(xi + p)),
            (-2.0, mo.abs_pow_sum(xi + 2)),
            (-a * b, mo.product_of(pr, mo.norm_sq())),
        ]
    else:
        raise ValueError("f_id must be 'one' or 'norm2_sq'")
    if n == 1:
        rhs_terms = [t for t in rhs_terms if not t[1].name.startswith("pair_ratio")]
    return _relation_reports(params, p, [(claim, [(xi + c + 1, lhs_f)], rhs_terms)], tol)[0]


def check_homogeneous_moment(params, p, l):
    """Closed-form transfer M(||x||_p^l f)/M(f) = Gamma ratio, f a coordinate
    square, within 10 times the oracle's error estimates."""
    if math.isinf(p):
        raise ValueError("finite p only")
    base = mo.coord_pow(2)
    lifted = mo.p_norm_power_times(p, l, base)
    ests = mo.quadrature_moments(params, p, [base, lifted])
    measured = ests[lifted.name].value / ests[base.name].value
    expected = mo.closed_form_moment(params.d, base.degree, l, p)
    tol = 10.0 * (ests[lifted.name].std_err + ests[base.name].std_err + 1e-9)
    tol_eff = max(tol, 1e-7) * max(1.0, abs(expected))
    return CheckReport(
        claim_id=f"homog-moment[{_ens_tag(params)},p={_p_tag(p)},l={l:g}]",
        passed=abs(measured - expected) <= tol_eff,
        lhs=measured,
        rhs=expected,
        tolerance=tol_eff,
        method="quadrature",
        provenance="closed-form",
        details={},
    )


# ---------------------------------------------------------------------------
# pointwise inequality checks

def check_zeta_bounds(a, xi, trials=1_000_000, seed=0):
    """Pointwise envelope for (|x|^xi x^a - |y|^xi y^a)/(x^a - y^a)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal(trials) * np.exp(rng.uniform(-2, 2, trials))
    y = rng.standard_normal(trials) * np.exp(rng.uniform(-2, 2, trials))
    keep = np.abs(x**a - y**a) > 1e-12 * (np.abs(x) ** a + np.abs(y) ** a)
    x, y = x[keep], y[keep]
    mid = (np.abs(x) ** xi * x**a - np.abs(y) ** xi * y**a) / (x**a - y**a)
    env = np.abs(x) ** xi + np.abs(y) ** xi
    if a % 2 == 0:
        z1 = min(1.0, (a + xi) / (2.0 * a))
    else:
        z1 = min(0.5, (a + xi) / (2.0 * a))
    z2 = max(1.0, (a + xi) / (2.0 * a))
    slack = 1e-9 * env
    violations = int(np.sum((mid < z1 * env - slack) | (mid > z2 * env + slack)))
    return CheckReport(
        claim_id=f"zeta-envelope[a={a},xi={xi}]",
        passed=violations == 0,
        lhs=float(np.min(mid / env)),
        rhs=float(np.max(mid / env)),
        tolerance=0.0,
        method="pointwise",
        provenance="random-trials",
        details={"zeta1": z1, "zeta2": z2, "trials": len(x), "violations": violations},
    )


def check_holder_band(p, n, trials=100_000, seed=0):
    """Pointwise norm comparison ||x||_p^{p+2} >= ||x||_{p+2}^{p+2} >= n^{-2/p} ||x||_p^{p+2}."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((trials, n)) * np.exp(rng.uniform(-1, 1, (trials, 1)))
    x = np.vstack([x, np.eye(n)[:1] , np.ones((1, n))])
    npow = np.sum(np.abs(x) ** p, axis=1) ** ((p + 2) / p)
    mid = np.sum(np.abs(x) ** (p + 2), axis=1)
    lo = npow * n ** (-2.0 / p)
    slack = 1e-12 * npow
    bad = int(np.sum((mid > npow + slack) | (mid < lo - slack)))
    return CheckReport(
        claim_id=f"holder-band[p={p:g},n={n}]",
        passed=bad == 0,
        lhs=float(np.max(mid / npow)),
        rhs=float(np.min(mid / lo)),
        tolerance=0.0,
        method="pointwise",
        provenance="random-trials",
        details={"trials": len(x), "violations": bad},
    )


# ---------------------------------------------------------------------------
# Gamma-ratio estimates

@functools.cache
def _gamma_table():
    """gammafn.gamma_grid over the grid of the Gamma checks, each quantity as
    a (d, p) array: d runs down the rows, p across the columns."""
    ds = np.unique(np.round(np.geomspace(4, 10_000, 25)).astype(int))
    ps = np.geomspace(1.0, 10_000.0, 25)
    rows = gamma_grid(ds, ps)
    return {key: np.array([r[key] for r in rows]).reshape(len(ds), len(ps)) for key in rows[0]}


def check_gamma_gap_positive():
    """gap(d, p) > 0 over the whole grid, decreasing in d at fixed p."""
    gap = _gamma_table()["gap"]
    min_gap = float(np.min(gap))
    monotone = not np.any(gap[1:] > gap[:-1] * (1 + 1e-12))
    return CheckReport(
        claim_id="gamma-gap-positive",
        passed=min_gap > 0.0 and monotone,
        lhs=min_gap,
        rhs=0.0,
        tolerance=0.0,
        method="grid",
        provenance="log-gamma",
        details={"monotone_in_d": monotone},
    )


def check_gamma_sandwich():
    """gap/ratio(q=2)^2 between 0.02/(p(p+d)) and 50/(p d) over the grid."""
    lo_const, hi_const = 0.02, 50.0
    t = _gamma_table()
    val, d, p = t["gap_over_ratio2_sq"], t["d"], t["p"]
    ok = np.all((lo_const / (p * (p + d)) <= val) & (val <= hi_const / (p * d)))
    return CheckReport(
        claim_id="gamma-gap-sandwich",
        passed=bool(ok),
        lhs=float(np.min(val * p * (p + d))),
        rhs=float(np.max(val * p * d)),
        tolerance=0.0,
        method="grid",
        provenance="log-gamma",
        details={"lo_const": lo_const, "hi_const": hi_const},
    )


def check_gamma_discrepancy():
    """|discrepancy^{1/q} - 1| <= 5 q / d for q in {2, 4} over the grid."""
    c_const = 5.0
    t = _gamma_table()
    d = t["d"]
    worst = 0.0
    ok = True
    for q, disc in ((2.0, t["discrepancy_q2"]), (4.0, t["discrepancy_q4"])):
        dev = np.abs(disc ** (1.0 / q) - 1.0)
        worst = max(worst, float(np.max(dev * d / q)))
        ok = ok and not np.any(dev > c_const * q / d)
    return CheckReport(
        claim_id="gamma-approximant-band",
        passed=ok,
        lhs=worst,
        rhs=c_const,
        tolerance=0.0,
        method="grid",
        provenance="log-gamma",
        details={},
    )


# ---------------------------------------------------------------------------
# exact entry identities on random matrices

def check_entry_identities(per_field=1000, n_range=(2, 8), tol=1e-9, seed=0):
    """Both quartic entry identities (and the minor form over R/C) on random
    Gaussian matrices of every field, each (field, n) group in one batch."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    counts = 0
    ns = list(range(n_range[0], n_range[1] + 1))
    for fld in ("R", "C", "H"):
        groups = {}
        for m in range(per_field):
            n = ns[m % len(ns)]
            groups.setdefault(n, []).append(ml.random_matrix(fld, n, rng))
        for mats in groups.values():
            t = ml.entry_identity_batch(fld, np.stack(mats))
            scale4 = np.maximum(1.0, np.abs(t.lhs4))
            scale22 = np.maximum(1.0, np.abs(t.lhs22))
            resid = [np.abs(t.lhs4 - t.rhs4()) / scale4, np.abs(t.lhs22 - t.rhs22()) / scale22,
                     t.quartic_cross_vector / scale4]
            if t.det_cross is not None:
                resid.append(np.abs(t.lhs22 - t.det_cross) / scale22)
            worst = max(worst, float(np.max(resid)))
            counts += len(mats)
    return CheckReport(
        claim_id=f"entry-identities[n={n_range[0]}..{n_range[1]}]",
        passed=worst <= tol,
        lhs=worst,
        rhs=0.0,
        tolerance=tol,
        method="exact",
        provenance="library-svd-vs-entry-sums",
        details={"matrices": counts},
    )


# ---------------------------------------------------------------------------
# negative correlation and thin-shell for the gas

def check_neg_correlation_threshold(b, c, p, n_grid=(4, 8, 16), budget=100_000, seed=0):
    """Ratio r = M(x1^4) M(1) / M(x1^2)^2 against its regime reference.

    p=inf: r >= 1.4, exact from the Selberg averages (strict-inequality
    threshold with slack for the vanishing finite-size correction); p=2:
    within 10% of 2 at 3 sigma; p=1: at least (1 - 20%) * 17/8 at 3 sigma.
    The 17/8 reference is a lower bound, not a limit value: the measured
    ratio settles near 2.70 for both b = 1 and b = 2, so only the one-sided
    comparison is asserted; the report still carries the two-sided band
    position.  Any other p raises ValueError.
    """
    if p not in (1, 2) and not math.isinf(p):
        raise ValueError(f"quartic-ratio references exist for p in {{1, 2, inf}}, got {p!r}")
    rows = []
    ok = True
    for i, n in enumerate(n_grid):
        params = EnsembleParams(2, b, c, n)
        est = mo.var_mp_pipeline(params, p, budget=budget, seed=seed + 17 * i)
        r, se = est.quart_ratio, est.quart_ratio_se
        if p == 2:
            ref = 2.0
            good = _z(abs(r - ref) - 0.10 * ref, se) <= 3.0
        else:
            ref = 1.5 if math.isinf(p) else 17.0 / 8.0
            lo = 1.4 if math.isinf(p) else 0.8 * ref
            good = _z(r - lo, se) >= 3.0
        row = {"n": n, "ratio": r, "se": se, "reference": ref, "passed": good}
        if p == 1:
            row["within_two_sided_20pct"] = bool(abs(r - ref) <= 0.20 * ref)
        ok = ok and good
        rows.append(row)
    return CheckReport(
        claim_id=f"quartic-ratio[(2,{b},{c}),p={_p_tag(p)}]",
        passed=ok,
        lhs=rows[-1]["ratio"],
        rhs=rows[-1]["reference"],
        tolerance=3.0 * rows[-1]["se"],
        method="exact" if math.isinf(p) else "mc",
        provenance="selberg-averages" if math.isinf(p) else "gas-sampler",
        details={"grid": rows},
    )


def check_cross_term_negative(b, c, n):
    """Negative correlation of coordinate squares at p=inf, from the exact
    Selberg averages (an error bar of 0)."""
    est = mo.var_mp_pipeline(EnsembleParams(2, b, c, n), math.inf)
    return _mc_report(f"cross-term-negative[(2,{b},{c}),n={n},p=inf]", est.cross_gap, 0.0,
                      est.cross_gap_se, est.ess, -1, "selberg-averages", method="exact")


def check_thinshell_large_p(b, n_grid=(8, 16)):
    """Var at p=inf, exact from the Selberg averages: band [1/(32b), 1/(2b)]
    around the 1/(8b) limit plus a closer-with-n trend for the larger size."""
    c = b - 1
    target = 1.0 / (8.0 * b)
    band = (target / 4.0, target * 4.0)
    rows = [mo.var_mp_pipeline(EnsembleParams(2, b, c, n), math.inf) for n in n_grid]
    in_band = all(band[0] <= est.combination <= band[1] for est in rows)
    gap_small = abs(rows[0].combination - target)
    gap_large = abs(rows[-1].combination - target)
    se = math.hypot(rows[0].std_err, rows[-1].std_err)
    trend = _z(gap_large - gap_small, se) <= 3.0
    return CheckReport(
        claim_id=f"thinshell-var-band[b={b}]",
        passed=in_band and trend,
        lhs=rows[-1].combination,
        rhs=target,
        tolerance=3.0 * se,
        method="exact",
        provenance="selberg-averages",
        details={
            "band": band,
            "estimates": [{"n": n, "var": est.combination, "se": est.std_err}
                          for n, est in zip(n_grid, rows)],
            "trend_ok": trend,
            "in_band": in_band,
        },
    )


def check_orders_of_magnitude(ensembles=((2, 1, 0), (2, 2, 1)), n_grid=(2, 4, 8, 16),
                              p_grid=(1.0, 2.0, 8.0, math.inf), budget=30_000, seed=0):
    """Normalized orders across the (ensemble, n, p) grid.

    Checks that M(x1^2)/M(1) and M(x1^4)/M(1) track n^{2/p} and n^{4/p}, that
    Var(||x||_2^2) tracks max(sigma^2, 1/p) n^{4/p} with sigma^2 from the ball
    law of the same draws, all three within [1/20, 20], and that the Euclidean
    second moment of the volume-normalized ball has the dimension order
    (unit-ball moment rescaled by the d^{-1/4-1/(2p)} volume radius) within
    [0.1, 10]."""
    band, eq1_band = (1.0 / 20.0, 20.0), (0.1, 10.0)
    rows = []
    ok = True
    idx = 0
    for abc in ensembles:
        for n in n_grid:
            for p in p_grid:
                params = EnsembleParams(*abc, n)
                d = params.d
                gas = sp.gas_sample(params, p, budget, seed + idx)
                idx += 1
                est = mo.var_mp_pipeline(params, p, gas=gas)
                npow2 = 1.0 if math.isinf(p) else n ** (2.0 / p)
                r2 = est.coord_sq_mean / npow2
                r4 = (est.term_quartic / n) / npow2**2
                ball = sp.ball_pushforward(gas, params, p, seed=seed + 7919 + idx)
                sig = mo.sigma_from_values(np.sum(ball.points**2, axis=1), d,
                                           gas.diagnostics.get("method", "mc"))
                inv_p = 0.0 if math.isinf(p) else 1.0 / p
                r_var = est.combination / (max(sig.sigma_sq, inv_p) * npow2**2)
                r_eq1 = sig.mean_norm_sq * d ** (0.5 + inv_p) / d
                good = (
                    band[0] <= r2 <= band[1]
                    and band[0] <= r4 <= band[1]
                    and band[0] <= r_var <= band[1]
                    and eq1_band[0] <= r_eq1 <= eq1_band[1]
                )
                ok = ok and good
                rows.append(
                    {
                        "ensemble": list(abc),
                        "n": n,
                        "p": "inf" if math.isinf(p) else p,
                        "coord_sq_order": r2,
                        "quartic_order": r4,
                        "var_order": r_var,
                        "eq1_order": r_eq1,
                        "sigma_sq": sig.sigma_sq,
                        "passed": good,
                    }
                )
    worst_lo = min(min(r["coord_sq_order"], r["quartic_order"], r["var_order"]) for r in rows)
    worst_hi = max(max(r["coord_sq_order"], r["quartic_order"], r["var_order"]) for r in rows)
    return CheckReport(
        claim_id="orders-of-magnitude",
        passed=ok,
        lhs=worst_lo,
        rhs=worst_hi,
        tolerance=0.0,
        method="mc",
        provenance="gas-sampler",
        details={"band": band, "grid": rows},
    )


def check_sigma_band_hit_and_run(field="R", n=4, budget=30_000, seed=0):
    """Thin-shell statistic of the operator-norm ball by the matrix walk: in
    the dimension-free band [0.01, 10] and within 3 standard errors of its
    exact value, moments.opnorm_ball_sigma_sq."""
    band = (0.01, 10.0)
    spec = SchattenSpec(field, "Full", n, math.inf)
    reference = float(mo.opnorm_ball_sigma_sq(field, n))
    est = mo.sigma_pipeline(spec, sampler="hit_and_run", budget=budget, seed=seed)
    return _mc_report(f"sigma-band-opnorm[{field},n={n}]", est.sigma_sq, reference,
                      est.std_err, est.ess, 0, "matrix-walk",
                      {"band": band, "se": est.std_err, "mean_over_dim": est.mean_over_dim,
                       "reference": reference},
                      method="hit_and_run", ok=band[0] <= est.sigma_sq <= band[1])


# ---------------------------------------------------------------------------
# self-adjoint splitting and anti-symmetric bookkeeping

def check_hermitian_split(n, p, xi=2, tol=1e-4):
    """Moment ratios of the coupled-eigenvalue gas split into two decoupled
    even-gas halves."""
    if n < 2 or n > mo.ORACLE_MAX_N:
        raise ValueError(f"quadrature route supports 2 <= n <= {mo.ORACLE_MAX_N}")
    lhs_params = EnsembleParams(1, 2, 0, n)
    f = mo.abs_pow_sum(xi)
    lhs = mo.quadrature_moment(lhs_params, p, f).value
    n1 = (n + 1) // 2
    n2 = n // 2
    rhs = mo.quadrature_moment(EnsembleParams(2, 2, 0, n1), p, f).value
    rhs += mo.quadrature_moment(EnsembleParams(2, 2, 2, n2), p, f).value
    return _closeness(f"hermitian-split[n={n},p={_p_tag(p)},xi={xi}]", lhs, rhs, tol,
                      {"n1": n1, "n2": n2, "residual": lhs - rhs})


def check_antisym_normalization(n, p, budget=40_000, seed=0):
    """Anti-symmetric Hermitian bookkeeping: paired singular values, the
    doubled p-norm, and the homogeneous moment relation (degree k = 2) between
    the matrix walk and the gas with its power-of-two and Gamma factors."""
    k = 2
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mats = np.stack([ml.random_antisym_hermitian(n, rng) for _ in range(50)])
    sv = ml.singular_values("C", mats)
    s = n // 2
    theta = sv[:, 0 : 2 * s : 2]
    pair_worst = float(np.max(np.abs(theta - sv[:, 1 : 2 * s : 2])))
    if n % 2:
        pair_worst = max(pair_worst, float(np.max(sv[:, -1])))
    norms = ml.schatten_norms("C", mats, p)
    if math.isinf(p):
        lhs_norm, rhs_norm = norms, np.max(theta, axis=1)
    else:
        lhs_norm, rhs_norm = norms**p, 2.0 * np.sum(theta**p, axis=1)
    norm_worst = float(np.max(np.abs(lhs_norm - rhs_norm) / np.maximum(1.0, np.abs(lhs_norm))))
    structure_ok = pair_worst <= 1e-10 and norm_worst <= 1e-10

    spec = SchattenSpec("C", "AntiSymHermitian", n, p)
    mapping = ensemble_of(spec)
    params = mapping.params
    hr = sp.matrix_hit_and_run(spec, n_samples=budget, seed=seed)
    sv = ml.batch_singular_values(spec, hr.points)
    theta = sv[:, 0 : 2 * (n // 2) : 2]
    f_hr = np.sum(theta**k, axis=1)
    m_hr, se_hr, ess_hr = batch_means(f_hr)

    gas = sp.gas_sample(params, p, budget, seed + 1)
    f_gas = np.sum(np.abs(gas.points) ** k, axis=1)
    m_gas, se_gas, ess_gas = batch_means(f_gas)
    d = params.d
    if math.isinf(p):
        factor = 1.0
    else:
        factor = 2.0 ** (-k / p) * gamma_ratio(d, p, k).value
    return _mc_report(f"antisym-normalization[n={n},p={_p_tag(p)},k={k}]", m_hr,
                      factor * m_gas, math.hypot(se_hr, factor * se_gas), min(ess_hr, ess_gas),
                      0, "two-estimator",
                      {"pair_worst": pair_worst, "norm_worst": norm_worst,
                       "gamma_factor": factor, "gas_dim": d},
                      ok=structure_ok)


# ---------------------------------------------------------------------------
# entry-level correlations over the uniform ball measure

# Matrices per block of _entry_statistics: the block, not the budget, sizes
# the entry temporaries (about 1 MB each for Full R at n=4).
_ENTRY_BLOCK = 8192


def _entry_statistics(spec, coords):
    """Per-sample symmetrized entry moments used by the correlation checks:
    (m2, row, col, diag_cross, quart, diag_prod), one value per coordinate row.

    The rows are expanded to entries _ENTRY_BLOCK at a time, so the memory
    beyond the draws does not grow with the budget.  Every statistic is a
    function of one matrix, so the blocks concatenate to the values of one
    batch bit for bit.
    """
    blocks = [_entry_block_statistics(spec, coords[i : i + _ENTRY_BLOCK])
              for i in range(0, len(coords), _ENTRY_BLOCK)]
    return tuple(np.concatenate(stat) for stat in zip(*blocks))


def _entry_block_statistics(spec, coords):
    entries = ml.coords_to_entries(spec, coords)
    n = spec.n
    sums = ml.entry_sums(spec.field, entries)
    m2 = sums.frobenius_sq / (n * n)
    row = sums.row_cross / (n * n * (n - 1))
    col = sums.col_cross / (n * n * (n - 1))
    diag_cross = sums.pair_cross / (n * n * (n - 1) ** 2)
    quart = sums.quartic_cross / (n * n * (n - 1) ** 2)
    # scalar product of distinct diagonal entries (isotropy: mean must vanish)
    real = entries[..., 0] if spec.field == "H" else np.real(entries)
    diag = real[:, np.arange(n), np.arange(n)]
    dsum = diag.sum(axis=1)
    diag_prod = (dsum**2 - (diag**2).sum(axis=1)) / (n * (n - 1))
    return m2, row, col, diag_cross, quart, diag_prod


def check_entry_correlations(field, p, n=4, budget=60_000, seed=0):
    """Cross-moment structure of matrix entries over the uniform Schatten ball.

    Verifies the rotation identity linking adjacent and disjoint cross terms
    through the quartic term, the position symmetries, vanishing mean products,
    and the regime facts: strict negative correlation of same-row squares at
    p = inf, and vanishing quartic term at p = 2.  The p = inf premises, the
    gas quartic ratio c4 = E x1^4 / (E x1^2)^2 below 2 and sigma^2 below n,
    are exact Selberg averages of the ball (moments._selberg_moments).
    """
    spec = SchattenSpec(field, "Full", n, p)
    beta = BETA[field]
    if p == 2:
        batch = sp.exact_p2_matrix_sample(spec, budget, seed)
    else:
        batch = sp.matrix_hit_and_run(spec, budget, seed)
    m2, row, col, diag_cross, quart, diag_prod = _entry_statistics(spec, batch.points)
    adj = 0.5 * (row + col)

    sub = {
        # rotation identity: adjacent = disjoint + (2/beta) quartic
        "rotation_identity_z": _mean_z(adj - diag_cross - (2.0 / beta) * quart),
        # position symmetry: row vs column cross terms
        "row_col_z": _mean_z(row - col),
        # isotropy: mean product of distinct diagonal entries
        "diag_product_z": _mean_z(diag_prod),
    }
    if math.isinf(p):
        # premises of the strict entry-level inequality, exact Selberg averages
        y1, _, sum_sq = mo._selberg_moments(EnsembleParams(2, beta, beta - 1, n))
        sub["premise_c4"] = c4 = float(sum_sq / (n * y1 * y1))
        sub["premise_c4_below_2"] = c4 < 2.0
        sub["premise_sigma_sq"] = sigma_sq = float(mo.opnorm_ball_sigma_sq(field, n))
        sub["premise_sigma_small"] = sigma_sq < n
        joint = np.stack([adj, m2], axis=1)
        means, cov, _ = batch_means_cov(joint)
        gap = means[0] - means[1] ** 2
        sub["neg_corr_gap"] = gap
        sub["neg_corr_z"] = _z(gap, delta_se([1.0, -2.0 * means[1]], cov))
    if p == 2:
        sub["quartic_z"] = _mean_z(quart)
        sub["cross_equal_z"] = _mean_z(adj - diag_cross)

    # every z is two-sided but neg_corr_z, which must be significantly negative
    ok = all([z <= -3.0 if key == "neg_corr_z" else abs(z) <= 3.0
              for key, z in sub.items() if key.endswith("_z")]
             + [sub.get("premise_c4_below_2", True), sub.get("premise_sigma_small", True)])
    return CheckReport(
        claim_id=f"entry-correlations[{field},n={n},p={_p_tag(p)}]",
        passed=ok,
        lhs=float(np.mean(adj)),
        rhs=float(np.mean(m2)) ** 2,
        tolerance=0.0,
        method="mc",
        provenance="uniform-ball-sampler",
        details=sub,
    )


# ---------------------------------------------------------------------------
# isotropic constant of the operator-norm ball

def check_isotropic_constant_limit(field="R", n=16, budget=60_000, seed=0):
    """Isotropic constant L_n = sqrt(E||T||_2^2 / D) |K|^(-1/D) of the Full
    n x n operator-norm ball K over field, D = beta n^2, exact at every n: it
    must lie within 15% of its limit 1/sqrt(pi e^{3/2}), and the mean ||T||_2^2
    of Metropolis draws must meet the exact E||T||_2^2 (Aomoto's) with |z| <= 3.
    |K| = pi^(D/2) Z_inf / Z_2, Z_q the integral of the singular-value density
    against exp(-||x||_q^q) (the SVD Jacobian cancels against the Frobenius
    ball's): Selberg's integral over Mehta's, a product of Gammas.
    """
    beta = BETA[field]
    params = EnsembleParams(2, beta, beta - 1, n)
    d = params.d
    norm_sq = float(n * mo._selberg_moments(params)[0])
    log_vol = 0.5 * d * math.log(math.pi) + math.fsum(
        math.lgamma(1 + j * beta / 2) - math.lgamma(1 + beta / 2 + (n + j - 1) * beta / 2)
        for j in range(n))
    vol_radius = math.exp(log_vol / d)
    l_n = math.sqrt(norm_sq / d) / vol_radius
    l_inf = 1.0 / math.sqrt(math.pi * math.exp(1.5))
    gas = sp.gas_sample(params, math.inf, budget, seed)
    mean, se, ess = batch_means(np.sum(gas.points**2, axis=1))
    details = {"vol_radius": vol_radius, "l_n": l_n, "l_inf": l_inf, "l_ratio": l_n / l_inf,
               "rel_tol": 0.15}
    return _mc_report(f"isotropic-constant[{field},n={n}]", mean, norm_sq, se, ess, 0,
                      "exact-selberg-volume", details, ok=abs(l_n / l_inf - 1.0) <= 0.15)


def report_k2_isotropy(subspace, n=3, budget=20_000, seed=0):
    """Report-only covariance diagnostics of the Frobenius ball in the special
    subspaces (no assertion: isotropy there is an open question)."""
    spec = SchattenSpec("C", subspace, n, 2.0)
    batch = sp.matrix_hit_and_run(spec, n_samples=budget, seed=seed)
    x = batch.points
    cov = np.cov(x.T)
    diag = np.diag(cov)
    off = cov - np.diag(diag)
    max_corr = float(np.max(np.abs(off)) / np.min(diag))
    spread = float(np.max(diag) / np.min(diag))
    return CheckReport(
        claim_id=f"k2-isotropy-report[{subspace},n={n}]",
        passed=True,
        lhs=spread,
        rhs=1.0,
        tolerance=0.0,
        method="hit_and_run",
        provenance="report-only",
        details={"coord_var_spread": spread, "max_offdiag_over_var": max_corr},
    )


# ---------------------------------------------------------------------------
# suites

_IDENTITY_ENSEMBLES = ((2, 1, 0), (2, 2, 1), (2, 4, 3), (2, 1, 1), (2, 2, 0), (2, 2, 2))


def _suite_identities(budget_scale=1.0, seed=0, only=None, tol=None):
    tol = 1e-5 if tol is None else tol
    out = []
    narrowed = only is not None

    def _selected(abc, n, p):
        if not narrowed:
            return True
        want_abc, want_n, want_p = only
        return (
            (want_abc is None or tuple(want_abc) == abc)
            and (want_n is None or want_n == n)
            and (want_p is None or want_p == p)
        )

    for abc in _IDENTITY_ENSEMBLES:
        for n in (2, 3):
            params = EnsembleParams(*abc, n)
            for p in (1.0, 2.0, 4.0):
                if _selected(abc, n, p):
                    out.extend(identity_suite_for(params, p, tol=tol))
    if narrowed:
        return out
    params = EnsembleParams(2, 1, 0, 2)
    out.append(check_int_by_parts(params, 2.0, xi=2, f_id="one", tol=tol))
    out.append(check_int_by_parts(params, 2.0, xi=2, f_id="norm2_sq", tol=tol))
    out.append(check_int_by_parts(EnsembleParams(1, 2, 0, 2), 2.0, xi=2, f_id="one", tol=tol))
    out.append(check_int_by_parts(EnsembleParams(1, 1, 0, 1), 2.0, xi=2, f_id="one", tol=tol))
    for p in (1.0, 2.0, 4.0):
        for l in (2.0, p, p + 2.0):
            out.append(check_homogeneous_moment(EnsembleParams(2, 2, 1, 2), p, l))
    out.append(check_zeta_bounds(2, 2, seed=seed))
    out.append(check_zeta_bounds(2, 4, seed=seed + 1))
    out.append(check_zeta_bounds(1, 2, seed=seed + 2))
    out.append(check_holder_band(3.0, 10, seed=seed + 3))
    return out


def _suite_gamma(budget_scale=1.0, seed=0):
    return [check_gamma_gap_positive(), check_gamma_sandwich(), check_gamma_discrepancy()]


def _suite_entries(budget_scale=1.0, seed=0):
    per = max(60, int(1000 * budget_scale))
    out = [check_entry_identities(per_field=per, seed=seed)]
    out.append(check_entry_correlations("R", 2.0, n=4,
                                        budget=max(2000, int(60_000 * budget_scale)),
                                        seed=seed))
    return out


def _suite_negcorr(budget_scale=1.0, seed=0):
    b = max(10_000, int(150_000 * budget_scale))
    out = [
        check_cross_term_negative(1, 0, 4),
        check_cross_term_negative(1, 0, 8),
        check_cross_term_negative(2, 1, 4),
        check_cross_term_negative(2, 1, 8),
        check_neg_correlation_threshold(1, 0, math.inf, n_grid=(4, 8, 16),
                                        budget=b, seed=seed + 4),
        check_neg_correlation_threshold(1, 0, 2.0, n_grid=(16,), budget=b, seed=seed + 5),
        check_neg_correlation_threshold(1, 0, 1.0, n_grid=(16,), budget=b, seed=seed + 6),
        check_entry_correlations("R", math.inf, n=4,
                                 budget=max(5000, int(40_000 * budget_scale)),
                                 seed=seed + 7),
    ]
    return out


def _suite_thinshell(budget_scale=1.0, seed=0):
    return [
        check_thinshell_large_p(1),
        check_thinshell_large_p(2),
        check_sigma_band_hit_and_run("R", 4, budget=max(4000, int(20_000 * budget_scale)),
                                     seed=seed + 2),
        check_isotropic_constant_limit("R", 16, budget=max(10_000, int(60_000 * budget_scale)),
                                       seed=seed + 3),
        check_orders_of_magnitude(n_grid=(2, 4, 8), p_grid=(1.0, 2.0, math.inf),
                                  budget=max(5000, int(20_000 * budget_scale)),
                                  seed=seed + 4),
    ]


def _suite_hermitian_split(budget_scale=1.0, seed=0):
    out = []
    for n in (2, 3):
        for p in (2.0, math.inf):
            for xi in (2, 4):
                out.append(check_hermitian_split(n, p, xi=xi))
    out.append(check_antisym_normalization(4, 3.0, budget=max(4000, int(30_000 * budget_scale)),
                                           seed=seed))
    out.append(check_antisym_normalization(5, 2.0, budget=max(4000, int(30_000 * budget_scale)),
                                           seed=seed + 1))
    return out


SUITES = {
    "identities": _suite_identities,
    "gamma": _suite_gamma,
    "entries": _suite_entries,
    "negcorr": _suite_negcorr,
    "thinshell": _suite_thinshell,
    "hermitian-split": _suite_hermitian_split,
}


def run_suite(name, budget_scale=1.0, seed=0, only=None, tol=None):
    """Run one named suite (or 'all'); returns the list of CheckReports.

    only = (ensemble, n, p) narrows the identities suite to matching
    configurations; tol overrides the identity tolerance.  Both are for the
    identities suite alone: any other suite, 'all' included, raises ValueError.
    """
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if name != "identities" and (only is not None or tol is not None):
        raise ValueError(f"ensemble, n, p and tol narrow only the identities suite, not {name!r}")
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](budget_scale, seed))
        out.append(report_k2_isotropy("SelfAdjoint", seed=seed))
        return out
    if name == "identities":
        return _suite_identities(budget_scale, seed, only=only, tol=tol)
    return SUITES[name](budget_scale, seed)
