"""Reproducible experiment runner: verify / estimate / sample / sweep / gamma.

Every output stream starts with a self-describing header record (schema
version, full run configuration, package version); data records after the
header are a pure function of the configuration and seed, so replays are
byte-identical apart from the header timestamp.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import moments as mo
from . import samplers as sp
from . import verify as vf
from .ensembles import EnsembleParams, SchattenSpec
from .gammafn import gamma_gap, gamma_ratio, gamma_grid

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

_SUBSPACE_ALIASES = {
    "full": "Full",
    "selfadjoint": "SelfAdjoint",
    "antisymhermitian": "AntiSymHermitian",
    "complexsymmetric": "ComplexSymmetric",
}


def _parse_p(text):
    if text.strip().lower() == "inf":
        return math.inf
    p = float(text)
    if not (p >= 1):
        raise argparse.ArgumentTypeError("p must be >= 1 or 'inf'")
    return p


def _parse_count(minimum):
    def parse(text):
        if not text.strip().lstrip("-").isdigit() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}")
        return int(text)
    return parse


def _parse_ensemble(text):
    try:
        a, b, c = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("ensemble must be 'a,b,c'") from exc
    return a, b, c


def _parse_subspace(text):
    key = text.strip().lower()
    if key not in _SUBSPACE_ALIASES:
        raise argparse.ArgumentTypeError(f"unknown subspace {text!r}")
    return _SUBSPACE_ALIASES[key]


@dataclass
class RunConfig:
    """Everything needed to replay a run; serialized into the output header."""

    subcommand: str
    options: dict
    seed: int
    fmt: str


def _dumps(v):
    """Strict JSON: _jsonable has already spelled every non-finite float."""
    return json.dumps(v, sort_keys=True, allow_nan=False)


class _Writer:
    def __init__(self, config, stream):
        self.config = config
        self.stream = stream
        self.fmt = config.fmt
        self._csv = None
        self._fields = None

    def header(self):
        head = {
            "record": "header",
            "schema": 1,
            "tool": "schattenlab",
            "version": __version__,
            "config": {
                "subcommand": self.config.subcommand,
                "options": vf._jsonable(self.config.options),
                "seed": self.config.seed,
                "format": self.config.fmt,
            },
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self.stream.write(("" if self.fmt == "jsonl" else "# ") + _dumps(head) + "\n")

    def record(self, rec):
        rec = vf._jsonable(rec)
        if self.fmt == "jsonl":
            self.stream.write(_dumps(rec) + "\n")
            return
        if self._csv is None:
            self._fields = list(rec.keys())
            self._csv = csv.DictWriter(self.stream, fieldnames=self._fields)
            self._csv.writeheader()
        elif set(rec) != set(self._fields):
            raise ValueError(f"csv record fields {sorted(rec)} differ from the header's "
                             f"{sorted(self._fields)}")
        self._csv.writerow({k: _dumps(v) if isinstance(v, dict) else v for k, v in rec.items()})


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(args, writer):
    only = None
    if args.ensemble is not None or args.n is not None or args.p is not None:
        only = (args.ensemble, args.n, args.p)
    reports = vf.run_suite(args.suite, budget_scale=args.budget_scale,
                           seed=args.seed, only=only, tol=args.tol)
    all_ok = True
    for rep in reports:
        writer.record(rep.to_record(nested=writer.fmt == "csv"))
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.claim_id} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}",
              file=sys.stderr)
        all_ok = all_ok and rep.passed
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _estimate_record(kind, context, est):
    """An estimate record: its kind, the run context, then every field of the
    estimate dataclass in declaration order (a field named in context keeps
    the context's place)."""
    return {"record": kind, **context, **asdict(est)}


def _estimate_sigma(args, writer):
    spec = SchattenSpec(args.field, args.subspace, args.n, args.p)
    est = mo.sigma_pipeline(spec, sampler=args.sampler, budget=args.samples, seed=args.seed,
                            mcmc_kwargs=_mcmc_kwargs(args))
    context = {"field": args.field, "subspace": args.subspace, "n": args.n, "p": args.p}
    writer.record(_estimate_record("sigma", context, est))


def _estimate_var(args, writer):
    params = EnsembleParams(*args.ensemble, args.n)
    est = mo.var_mp_pipeline(params, args.p, budget=args.samples, seed=args.seed,
                             mcmc_kwargs=_mcmc_kwargs(args))
    context = {"ensemble": list(args.ensemble), "n": args.n, "p": args.p}
    writer.record(_estimate_record("var_mp", context, est))


def _estimate_moment(args, writer):
    params = EnsembleParams(*args.ensemble, args.n)
    if args.method == "quadrature":
        est = mo.quadrature_moment(params, args.p, args.functional)
    else:
        batch = sp.gas_sample(params, args.p, args.samples, args.seed,
                              mcmc_kwargs=_mcmc_kwargs(args))
        est = mo.estimate_moment(batch, args.functional)
    context = {"ensemble": list(args.ensemble), "n": args.n, "p": args.p,
               "functional": args.functional}
    writer.record(_estimate_record("moment", context, est))


def _cmd_estimate(args, writer):
    if args.quantity == "sigma":
        _estimate_sigma(args, writer)
    elif args.quantity == "var":
        _estimate_var(args, writer)
    else:
        _estimate_moment(args, writer)
    return EXIT_OK


def _cmd_sample(args, writer):
    if args.target == "gas":
        params = EnsembleParams(*args.ensemble, args.n)
        batch = sp.gas_sample(params, args.p, args.samples, args.seed,
                              mcmc_kwargs=_mcmc_kwargs(args))
    else:
        spec = SchattenSpec(args.field, args.subspace, args.n, args.p)
        batch = sp.matrix_hit_and_run(spec, n_samples=args.samples, seed=args.seed,
                                      **_mcmc_kwargs(args))
    for row in batch.points:
        writer.record({f"x{i}": float(v) for i, v in enumerate(row)})
    return EXIT_OK


def _cmd_sweep(args, writer):
    idx = 0
    for abc in args.ensembles:
        for n in args.n_list:
            for p in args.p_list:
                params = EnsembleParams(*abc, n)
                est = mo.var_mp_pipeline(params, p, budget=args.samples,
                                         seed=args.seed + idx)
                idx += 1
                context = {"ensemble": list(abc), "n": n, "p": p}
                writer.record(_estimate_record("sweep", context, est))
    return EXIT_OK


def _cmd_gamma(args, writer):
    if args.grid:
        ds = np.unique(np.round(np.geomspace(4, 10_000, 15)).astype(int))
        ps = np.geomspace(1.0, 10_000.0, 15)
        for row in gamma_grid(ds, ps):
            rec = {"record": "gamma"}
            rec.update(row)
            writer.record(rec)
    else:
        r = gamma_ratio(args.d, args.p, args.q)
        writer.record(
            {
                "record": "gamma",
                "d": args.d,
                "p": args.p,
                "q": args.q,
                "ratio": r.value,
                "approximant": r.approximant,
                "discrepancy": r.discrepancy,
                "gap": gamma_gap(args.d, args.p),
            }
        )
        print(f"{r.value:.12g}", file=sys.stderr)
    return EXIT_OK


def _run(args):
    """Write the header, run the subcommand body on the output stream and
    return its exit code; an oracle failure exits with EXIT_ORACLE."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("func", "out", "format", "seed", "subcommand")}
    config = RunConfig(args.subcommand, options, args.seed, args.format)
    stream, close = _open_out(args.out)
    try:
        writer = _Writer(config, stream)
        writer.header()
        return args.func(args, writer)
    except mo.OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    finally:
        if close:
            stream.close()


def _mcmc_kwargs(args):
    """The chain flags given on the command line, named as the samplers name them."""
    names = {"chains": "n_chains", "burn_in": "burn_in", "thinning": "thinning"}
    return {kw: getattr(args, flag) for flag, kw in names.items()
            if getattr(args, flag, None) is not None}


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed for replay")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schattenlab",
        description="Gas-density and Schatten-ball verification laboratory",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    v = subs.add_parser("verify", help="run a named check suite")
    v.add_argument("--suite", default="all",
                   choices=("all",) + tuple(vf.SUITES.keys()))
    v.add_argument("--budget-scale", type=float, default=1.0,
                   help="multiplier on the default sampling budgets")
    v.add_argument("--ensemble", type=_parse_ensemble, default=None,
                   help="narrow the identities suite to one (a,b,c)")
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--p", type=_parse_p, default=None)
    v.add_argument("--tol", type=float, default=None,
                   help="identity tolerance override")
    _add_common(v)
    v.set_defaults(func=_cmd_verify)

    e = subs.add_parser("estimate", help="print moment / variance / sigma estimates")
    e.add_argument("quantity", choices=("sigma", "var", "moment"))
    e.add_argument("--field", default="R", choices=("R", "C", "H"))
    e.add_argument("--subspace", type=_parse_subspace, default="Full")
    e.add_argument("--ensemble", type=_parse_ensemble, default=(2, 1, 0))
    e.add_argument("--n", type=int, default=2)
    e.add_argument("--p", type=_parse_p, default=2.0)
    e.add_argument("--sampler", default="auto", choices=("auto", "hit_and_run"))
    e.add_argument("--functional", default="x1_sq")
    e.add_argument("--method", default="mc", choices=("mc", "quadrature"))
    e.add_argument("--samples", type=int, default=50_000)
    e.add_argument("--chains", type=_parse_count(1), default=None)
    e.add_argument("--burn-in", type=_parse_count(0), default=None)
    e.add_argument("--thinning", type=_parse_count(1), default=None)
    _add_common(e)
    e.set_defaults(func=_cmd_estimate)

    s = subs.add_parser("sample", help="stream sampler output")
    s.add_argument("target", choices=("gas", "matrix"))
    s.add_argument("--ensemble", type=_parse_ensemble, default=(2, 1, 0))
    s.add_argument("--field", default="R", choices=("R", "C", "H"))
    s.add_argument("--subspace", type=_parse_subspace, default="Full")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--p", type=_parse_p, default=2.0)
    s.add_argument("--samples", type=int, default=1000)
    s.add_argument("--chains", type=_parse_count(1), default=None)
    s.add_argument("--burn-in", type=_parse_count(0), default=None)
    s.add_argument("--thinning", type=_parse_count(1), default=None)
    _add_common(s)
    s.set_defaults(func=_cmd_sample)

    w = subs.add_parser("sweep", help="grid over (ensemble, n, p)")
    w.add_argument("--ensembles", type=lambda t: [_parse_ensemble(x) for x in t.split(";")],
                   default=[(2, 1, 0), (2, 2, 1)])
    w.add_argument("--n-list", type=lambda t: [int(x) for x in t.split(",")],
                   default=[2, 4])
    w.add_argument("--p-list", type=lambda t: [_parse_p(x) for x in t.split(",")],
                   default=[1.0, 2.0, math.inf])
    w.add_argument("--samples", type=int, default=20_000)
    _add_common(w)
    w.set_defaults(func=_cmd_sweep)

    g = subs.add_parser("gamma", help="tabulate the Gamma-ratio quantities")
    g.add_argument("--d", type=float, default=4.0)
    g.add_argument("--p", type=float, default=2.0)
    g.add_argument("--q", type=float, default=2.0)
    g.add_argument("--grid", action="store_true")
    _add_common(g)
    g.set_defaults(func=_cmd_gamma)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
