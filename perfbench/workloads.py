"""The benchmark workloads: their operations and the checks on their outputs.

An operation is one call (or one short loop of calls) into schattenlab, or a
few equal parts of one, each with its own seed.  Every part of its `run` is
timed on its own; its `check` runs after the clock stops and turns the
output (the list of the parts' outputs, where there are several) into Checks
against references.py.  Every pass of a workload attempts the same
operations, so the share of failed operations is the same in every run.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref

INF = math.inf


@dataclass(frozen=True)
class Check:
    """One comparison of a measured value with its reference.

    It passes when |value - reference| <= tol.  se is the standard error of
    a Monte Carlo value; a check whose se is too large to resolve its own
    tolerance is underpowered, and its operation counts as failed.
    """

    name: str
    value: float
    reference: float
    tol: float
    se: float | None = None

    @property
    def passed(self):
        return bool(abs(self.value - self.reference) <= self.tol)

    @property
    def powered(self):
        return bool(self.se is None or ref.POWER_Z * self.se <= self.tol)


@dataclass
class Op:
    """A timed call into the package and the checks on what it returned.

    run takes the part index.  known_fault marks the one operation whose
    check fails on every run because of a named fault in the package; its
    miss counts as a failed operation rather than a wrong answer.
    """

    name: str
    run: Callable[[int], object]
    check: Callable[[object], list]
    known_fault: bool = False
    parts: int = 1


def exact(name, value, reference, rel):
    """Deterministic comparison with a closed form, relative tolerance."""
    return Check(name, float(value), float(reference), rel * abs(reference))


def residual(name, lhs, rhs, rel):
    """lhs - rhs against zero, tolerance relative to the larger side (at least 1)."""
    return Check(name, float(lhs - rhs), 0.0, rel * max(1.0, abs(lhs), abs(rhs)))


def mc(name, values, reference, rel):
    """Batch-means mean of a sample path against a closed form."""
    mean, se, _ = ref.batch_summary(values)
    return Check(name, mean, float(reference), rel * abs(reference), se)


def op_seed(seed, pass_index, op_index, part=0):
    """Distinct package seeds for every part of every operation of every pass,
    fixed by --seed (op_index < 99, part < 50).  Parts are two apart, since
    sigma_pipeline also uses its seed + 1."""
    return (int(seed) * 100_003 + pass_index * 10_007 + op_index * 101 + 2 * part) % (2**31 - 1)


# ---------------------------------------------------------------------------
# oracle: the quadrature oracle and log_f_p on its grids, no sampler

# Every oracle call ends within about 60 ms, so a run times each one in many
# passes.  Most calls at n=3 take 0.3-6 s, and on a shared host the time of a
# call that long follows the host's speed over that span; the cases run at
# n=2, and at n=3 where they converge early (the hermitian split and (2,1,0)
# at p=inf).  The identities hold at finite p only.
IDENTITY_CASES = (((2, 1, 0), 2, 2.0), ((2, 1, 0), 2, 4.0), ((2, 2, 1), 2, 1.0),
                  ((2, 4, 3), 2, 2.0))
AOMOTO_CASES = (((2, 2, 1), 2), ((2, 4, 3), 2), ((2, 1, 0), 3))
GAP_GRID = tuple((d, p) for d in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5)
                 for p in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5))
ORACLE_REL = 1e-8        # identities and closed forms through the oracle (certified to ~1e-10)
GAP_REL = 1e-12          # gamma_gap promises full relative accuracy
RATIO_REL = 1e-9         # gamma_ratio against mpmath


def prepare_oracle():
    return {"gap": [ref.mp_gamma_gap(d, p) for d, p in GAP_GRID]}


def _identity_checks(abc, n, p, reports):
    a, b, c = abc
    d = ref.gas_degree(a, b, c, n)
    out = [residual(r.claim_id, r.lhs, r.rhs, ORACLE_REL) for r in reports]
    if p == 2.0:
        # identity 1 reads ((2d + (1-c)n)/n) M(||x||_2^2); at p=2, M(||x||_2^2) = d/2
        lhs1 = next(r.lhs for r in reports if r.claim_id.startswith("identity-1"))
        out.append(exact("M2(|x|^2)=d/2", lhs1 * n / (2 * d + (1 - c) * n), d / 2.0, ORACLE_REL))
    return out


def _moment_values(mo, fids, ests):
    return [ests[mo.resolve_functional(f).name].value for f in fids]


def oracle_ops(sl, seed, pass_index, refs):
    vf, mo, gf = sl.verify, sl.moments, sl.gammafn
    params = sl.ensembles.EnsembleParams
    ops = []
    for abc, n, p in IDENTITY_CASES:
        ops.append(Op(f"identities{abc},n={n},p={p:g}",
                      lambda _, abc=abc, n=n, p=p: vf.identity_suite_for(params(*abc, n), p),
                      lambda reps, abc=abc, n=n, p=p: _identity_checks(abc, n, p, reps)))

    d210 = ref.gas_degree(2, 1, 0, 2)
    ops.append(Op("homogeneity(2,1,0),n=2,p=4",
                  lambda _: mo.quadrature_moments(params(2, 1, 0, 2), 4.0, ["normpow:4"]),
                  lambda ests: [exact("M4(|x|_4^4)=d/4", _moment_values(mo, ["normpow:4"], ests)[0],
                                      d210 / 4.0, ORACLE_REL)]))

    def split_checks(rep, closed_form):
        return [residual("lhs=rhs", rep.lhs, rep.rhs, ORACLE_REL),
                exact("lhs=closed form", rep.lhs, closed_form, ORACLE_REL)]

    # (1,2,0), n=3 splits into (2,2,0), n=2 and (2,2,2), n=1.  At finite p,
    # homogeneity gives M_p(||x||_p^p) = d/p.
    split_inf = (2 * ref.aomoto_product_mean(2, 0, 2, 1) + ref.aomoto_product_mean(2, 2, 1, 1))
    for p in (2.0, 4.0):
        ops.append(Op(f"hermitian-split,n=2,p={p:g},xi={p:g}",
                      lambda _, p=p: vf.check_hermitian_split(2, p, xi=int(p)),
                      lambda rep, p=p: split_checks(rep, ref.gas_degree(1, 2, 0, 2) / p)))
    ops.append(Op("hermitian-split,n=3,p=inf", lambda _: vf.check_hermitian_split(3, INF, xi=2),
                  lambda rep: split_checks(rep, split_inf)))

    fids = ["x1_sq", "x1sq_x2sq"]
    for abc, n in AOMOTO_CASES:
        _, b, c = abc

        def aomoto_checks(ests, b=b, c=c, n=n):
            e1, e2 = _moment_values(mo, fids, ests)
            return [exact("E x1^2", e1, ref.aomoto_product_mean(b, c, n, 1), 1e-10),
                    exact("E x1^2 x2^2", e2, ref.aomoto_product_mean(b, c, n, 2), 1e-10)]

        ops.append(Op(f"aomoto{abc},n={n},p=inf",
                      lambda _, abc=abc, n=n: mo.quadrature_moments(params(*abc, n), INF, fids),
                      aomoto_checks))

    # A10 pin: the (2,2,1), p=1 fourth moment (at n=2); homogeneity fixes
    # M(||x||_1 x1^4)/M(x1^4) = Gamma(d+5)/Gamma(d+4) = d+4 exactly.
    base = mo.coord_pow(4)
    lifted = mo.p_norm_power_times(1.0, 1.0, base)
    d221 = ref.gas_degree(2, 2, 1, 2)

    def pin_checks(ests):
        ratio = ests[lifted.name].value / ests[base.name].value
        return [exact("M1(|x|_1 x1^4)/M1(x1^4)", ratio,
                      math.exp(ref.log_gamma_ratio(d221 + 5.0, d221 + 4.0)), ORACLE_REL)]

    ops.append(Op("A10-pin(2,2,1),n=2,p=1",
                  lambda _: mo.quadrature_moments(params(2, 2, 1, 2), 1.0, [base, lifted]),
                  pin_checks))

    def gap_checks(values):
        worst = max(abs(v - r) / r for v, r in zip(values, refs["gap"]))
        return [Check("max rel err vs mpmath", worst, 0.0, GAP_REL)]

    ops.append(Op("gamma_gap accuracy, d,p<=1e5",
                  lambda _: [gf.gamma_gap(d, p) for d, p in GAP_GRID], gap_checks, known_fault=True))

    rng = np.random.default_rng(op_seed(seed, pass_index, 99))
    points = [(float(10 ** rng.uniform(0, 4)), float(10 ** rng.uniform(0, 4)), float(q))
              for q in rng.choice([2.0, 4.0], size=40)]

    def ratio_checks(values):
        worst = max(abs(v - ref.mp_gamma_ratio(*pt)) / ref.mp_gamma_ratio(*pt)
                    for v, pt in zip(values, points))
        return [Check("max rel err vs mpmath", worst, 0.0, RATIO_REL)]

    ops.append(Op("gamma_ratio at seeded (d,p,q)",
                  lambda _: [gf.gamma_ratio(*pt).value for pt in points], ratio_checks))
    return ops


# ---------------------------------------------------------------------------
# matrixlab: the Jacobi SVD through the entry identities (run in gauss-exact)

ENTRY_PER_FIELD = 25       # in each of ENTRY_PARTS parts
ENTRY_PARTS = 8
TERM_PARTS = 4             # each with one matrix per field and size


def _embed_h(e):
    a = e[..., 0] + 1j * e[..., 1]
    b = e[..., 2] + 1j * e[..., 3]
    return np.block([[a, b], [-b.conj(), a.conj()]])


def matrixlab_ops(sl, seed, pass_index, first_index):
    vf, ml = sl.verify, sl.matrixlab
    rng = np.random.default_rng(op_seed(seed, pass_index, first_index + 1))
    mats = [[(fld, rng.standard_normal((m, m, 4) if fld == "H" else (m, m))
              + (1j * rng.standard_normal((m, m)) if fld == "C" else 0.0))
             for fld in ("R", "C", "H") for m in range(2, 7)] for _ in range(TERM_PARTS)]

    def terms_checks(parts):
        worst = 0.0
        for part_mats, terms in zip(mats, parts):
            for (fld, e), t in zip(part_mats, terms):
                big = _embed_h(e) if fld == "H" else e
                gram = big @ big.conj().T
                s4 = float(np.sum(np.abs(gram) ** 2))
                s2 = float(np.sum(np.abs(big) ** 2))
                if fld == "H":  # the embedding doubles every singular value
                    s4, s2 = s4 / 2.0, s2 / 2.0
                worst = max(worst, abs(t.lhs4 - s4) / s4, abs(t.lhs22 - (s2 * s2 - s4)) / (s2 * s2),
                            abs(t.rhs4() - s4) / s4, abs(t.rhs22() - (s2 * s2 - s4)) / (s2 * s2))
        return [Check("entry identities vs numpy Gram", worst, 0.0, 1e-9)]

    return [
        Op("entry identities (Jacobi SVD)",
           lambda part: vf.check_entry_identities(per_field=ENTRY_PER_FIELD,
                                                  seed=op_seed(seed, pass_index, first_index, part)),
           lambda reps: [Check("worst relative residual", max(r.lhs for r in reps), 0.0, 1e-9)],
           parts=ENTRY_PARTS),
        Op("entry identity terms on seeded matrices",
           lambda part: [ml.entry_identity_terms(ml.MatrixSample(fld, e)) for fld, e in mats[part]],
           terms_checks, parts=TERM_PARTS),
    ]


def _cli_record(cli, argv):
    """Run `schattenlab <argv>` in this process; return the last record it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"schattenlab {' '.join(argv)} exited {code}: {err.getvalue()[-300:]}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# gauss-exact: the exact p=2 route (tridiagonal models, exact balls)

EXACT_DRAWS = 100_000
# The exact samplers and `schattenlab estimate sigma` draw EXACT_DRAWS in
# this many parts of at most about 0.15 s; each check pools its parts.
EXACT_PARTS = 10


def _gas_checks(a, b, c, n, points, tol):
    x = np.asarray(points)
    d = ref.gas_degree(a, b, c, n)
    r2 = np.sum(x**2, axis=1)
    m2, m4 = ref.gaussian_radial_moments(d)
    out = [mc("E|x|^2 = d/2", r2, m2, tol), mc("E|x|^4 = (d/2)(d/2+1)", r2**2, m4, 2 * tol)]
    s4 = np.sum(x**4, axis=1)
    if a == 1:
        out.append(mc("E sum x^4 (by parts)", s4, ref.gaussian_quartic_a1(b, n), 2 * tol))
        out.append(mc("E (sum x)^2 = n/2", np.sum(x, axis=1) ** 2, n / 2.0, 10 * tol))
    else:
        out.append(mc("E sum x^4 (identity 1)", s4, ref.gaussian_quartic_a2(b, c, n), 2 * tol))
    return out


def _ball_checks(dim, points):
    x = np.asarray(points)
    v = np.sum(x**2, axis=1)
    mean, sigma_sq, coord = ref.frobenius_ball(dim)
    sig, sig_se = ref.sigma_sq_with_se(v, dim)
    return [mc("E|T|_2^2 = D/(D+2)", v, mean, 0.0023),
            Check("sigma^2 = 4/(D+4)", sig, sigma_sq, 0.05 * sigma_sq, sig_se),
            mc("E t_1^2 = 1/(D+2)", x[:, 0] ** 2, coord, 0.03)]


def gauss_exact_ops(sl, seed, pass_index, refs):
    sp, vf, cli = sl.samplers, sl.verify, sl.cli
    params, spec_cls = sl.ensembles.EnsembleParams, sl.ensembles.SchattenSpec
    part_draws = EXACT_DRAWS // EXACT_PARTS
    n = 16
    ops = []
    for k, (abc, tol) in enumerate((((1, 1, 0), 0.0035), ((2, 4, 3), 0.00115))):
        ops.append(Op(f"exact_p2_sample {str(abc).replace(' ', '')},n=16",
                      lambda part, abc=abc, k=k: sp.exact_p2_sample(
                          params(*abc, n), part_draws, seed=op_seed(seed, pass_index, k, part)),
                      lambda gs, abc=abc, tol=tol: _gas_checks(
                          *abc, n, np.concatenate([g.points for g in gs]), tol),
                      parts=EXACT_PARTS))
    for k, fld in enumerate("RC"):
        ball = spec_cls(fld, "Full", 4, 2.0)
        ops.append(Op(f"exact_p2_matrix_sample {fld},n=4",
                      lambda part, ball=ball, k=k: sp.exact_p2_matrix_sample(
                          ball, part_draws, seed=op_seed(seed, pass_index, 2 + k, part)),
                      lambda bs, ball=ball: _ball_checks(ball.dim, np.concatenate([b.points for b in bs])),
                      parts=EXACT_PARTS))
    for k, fld in enumerate("RC"):
        spec = spec_cls(fld, "Full", n, 2.0)

        def sigma_checks(recs, dim=spec.dim):
            # the parts are independent and of equal size: average them
            mean, sigma_sq, _ = ref.frobenius_ball(dim)
            sig = float(np.mean([r["sigma_sq"] for r in recs]))
            sig_se = math.sqrt(sum(r["std_err"] ** 2 for r in recs)) / len(recs)
            return [Check("sigma^2 = 4/(d+4)", sig, sigma_sq, 0.06 * sigma_sq, sig_se),
                    exact("E|T|_2^2 = d/(d+2)", np.mean([r["mean_norm_sq"] for r in recs]), mean, 2e-4)]

        # sigma_pipeline through the CLI, which also uses the seed + 1
        ops.append(Op(f"estimate sigma {fld},n=16,p=2",
                      lambda part, fld=fld, k=k: _cli_record(cli, [
                          "estimate", "sigma", "--field", fld, "--n", str(n), "--p", "2",
                          "--samples", str(part_draws), "--seed", str(op_seed(seed, pass_index, 4 + k, part))]),
                      sigma_checks, parts=EXACT_PARTS))

    dim = 16  # Full R, n=4
    adjacent = 1.0 / ((dim + 2.0) * (dim + 4.0))
    coord = 1.0 / (dim + 2.0)

    def corr_checks(rep):
        zs = [Check(name, rep.details[name], 0.0, ref.POWER_Z)
              for name in ("rotation_identity_z", "row_col_z", "diag_product_z",
                           "quartic_z", "cross_equal_z")]
        return zs + [exact("E t_ij^2 t_ik^2 = 1/((D+2)(D+4))", rep.lhs, adjacent, 0.015),
                     exact("(E t_ij^2)^2 = 1/(D+2)^2", rep.rhs, coord**2, 0.015)]

    ops.append(Op("entry correlations R,n=4,p=2",
                  lambda _: vf.check_entry_correlations("R", 2.0, n=4, budget=EXACT_DRAWS,
                                                        seed=op_seed(seed, pass_index, 6)),
                  corr_checks))
    return ops + matrixlab_ops(sl, seed, pass_index, len(ops))


WORKLOADS = {
    "oracle": (prepare_oracle, oracle_ops),
    "gauss-exact": (dict, gauss_exact_ops),
}
