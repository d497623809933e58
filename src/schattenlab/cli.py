"""Reproducible experiment runner: verify / estimate / sample / sweep / gamma.

This module alone turns results into records.  Every kind of record (checks,
estimates, sweep rows, samples, Gamma rows) goes through one writer,
`_Writer`, and its one rule: the record's context (its kind, and the
ensemble, n, p of an estimate), then every field of the result, a dataclass
or a dict, in order.  Every output stream starts with a self-describing
header record (schema version, full run configuration, package version);
data records after the header are a pure function of the configuration and
seed, so replays are byte-identical apart from the header timestamp.
"""

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from . import moments as mo
from . import samplers as sp
from . import verify as vf
from .ensembles import FIELDS, SUBSPACES, EnsembleParams, SchattenSpec
from .gammafn import gamma_gap, gamma_ratio, gamma_grid

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

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
    for name in SUBSPACES:
        if name.lower() == key:
            return name
    raise argparse.ArgumentTypeError(f"unknown subspace {text!r}")


def _jsonable(v):
    """v with numpy scalars and arrays made plain, and every non-finite float
    spelled "inf", "-inf" or "nan", so a record is strict JSON."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"
    if isinstance(v, (np.ndarray, list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _dumps(v):
    """Strict JSON: _jsonable has already spelled every non-finite float."""
    return json.dumps(v, sort_keys=True, allow_nan=False)


class _Writer:
    """The one record writer of a run, built from its parsed arguments.

    The --out stream (stdout for None or "-", looked up when it opens) opens
    with the header at the first record: a run that fails before its first
    record creates no file and leaves an existing file as it was."""

    def __init__(self, args):
        self.args, self.fmt = args, args.format
        self.file = self._csv = None

    def open(self):
        if self.file is not None:
            return
        args = self.args
        options = {k: v for k, v in vars(args).items()
                   if k not in ("out", "format", "seed", "subcommand")}
        head = {
            "record": "header",
            "schema": 1,
            "tool": "schattenlab",
            "version": __version__,
            "config": {"subcommand": args.subcommand, "options": options,
                       "seed": args.seed, "format": self.fmt},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self.file = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8")
        self.file.write(("" if self.fmt == "jsonl" else "# ") + _dumps(_jsonable(head)) + "\n")

    def close(self):
        if self.file is not None and self.file is not sys.stdout:
            self.file.close()

    def record(self, obj, **context):
        """Write one record: the context, then every field of obj (a dataclass
        or a dict) in order; a field named in the context keeps the context's
        place.  A dict-valued "details" field (a CheckReport's) is spread into
        the record in JSON lines and kept whole as one JSON column in CSV; a
        CSV boolean is spelled as in JSON, true or false."""
        rec = _jsonable({**context, **(asdict(obj) if is_dataclass(obj) else obj)})
        self.open()
        if self.fmt == "jsonl":
            if isinstance(rec.get("details"), dict):
                rec.update(rec.pop("details"))
            self.file.write(_dumps(rec) + "\n")
            return
        if self._csv is None:
            self._csv = csv.DictWriter(self.file, fieldnames=list(rec))
            self._csv.writeheader()
        elif set(rec) != set(self._csv.fieldnames):
            raise ValueError(f"csv record fields {sorted(rec)} differ from the header's "
                             f"{sorted(self._csv.fieldnames)}")
        self._csv.writerow({k: _dumps(v) if isinstance(v, (dict, bool)) else v
                            for k, v in rec.items()})


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(args, writer):
    only = None
    if args.ensemble is not None or args.n is not None or args.p is not None:
        only = (args.ensemble, args.n, args.p)
    reports = vf.run_suite(args.suite, budget_scale=args.budget_scale,
                           seed=args.seed, only=only, tol=args.tol)
    for rep in reports:
        writer.record(rep, record="check")
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.claim_id} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}",
              file=sys.stderr)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_CHECK_FAILED


def _cmd_estimate(args, writer):
    mcmc_kwargs = _mcmc_kwargs(args)
    context = {"ensemble": args.ensemble, "n": args.n, "p": args.p}
    if args.quantity == "sigma":
        spec = SchattenSpec(args.field, args.subspace, args.n, args.p)
        est = mo.sigma_pipeline(spec, sampler=args.sampler, budget=args.samples,
                                seed=args.seed, mcmc_kwargs=mcmc_kwargs)
        kind, context = "sigma", {"field": args.field, "subspace": args.subspace,
                                  "n": args.n, "p": args.p}
    elif args.quantity == "var":
        est = mo.var_mp_pipeline(EnsembleParams(*args.ensemble, args.n), args.p,
                                 budget=args.samples, seed=args.seed, mcmc_kwargs=mcmc_kwargs)
        kind = "var_mp"
    else:
        params = EnsembleParams(*args.ensemble, args.n)
        functional = mo.resolve_functional(args.functional)  # a malformed id draws nothing
        if args.method == "quadrature":
            est = mo.quadrature_moment(params, args.p, functional)
        else:
            batch = sp.gas_sample(params, args.p, args.samples, args.seed,
                                  mcmc_kwargs=mcmc_kwargs)
            est = mo.estimate_moment(batch, functional)
        kind, context["functional"] = "moment", args.functional
    writer.record(est, record=kind, **context)
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
        writer.record({f"x{i}": v for i, v in enumerate(row)})
    return EXIT_OK


def _cmd_sweep(args, writer):
    grid = itertools.product(args.ensembles, args.n_list, args.p_list)
    for idx, (abc, n, p) in enumerate(grid):
        est = mo.var_mp_pipeline(EnsembleParams(*abc, n), p, budget=args.samples,
                                 seed=args.seed + idx)
        writer.record(est, record="sweep", ensemble=abc, n=n, p=p)
    return EXIT_OK


def _cmd_gamma(args, writer):
    if args.grid:
        for row in gamma_grid(15):
            writer.record(row, record="gamma")
    else:
        r = gamma_ratio(args.d, args.p, args.q)
        writer.record({"d": args.d, "p": args.p, "q": args.q, "ratio": r.value,
                       "approximant": r.approximant, "discrepancy": r.discrepancy,
                       "gap": gamma_gap(args.d, args.p)}, record="gamma")
        print(f"{r.value:.12g}", file=sys.stderr)
    return EXIT_OK


def _mcmc_kwargs(args):
    """The chain flags given on the command line, named as the samplers name them."""
    kwargs = {"n_chains": args.chains, "burn_in": args.burn_in}
    return {kw: v for kw, v in kwargs.items() if v is not None}


def _add_draw_args(sub):
    """The arguments estimate and sample share: what to draw and how."""
    sub.add_argument("--ensemble", type=_parse_ensemble, default=(2, 1, 0))
    sub.add_argument("--field", default="R", choices=FIELDS)
    sub.add_argument("--subspace", type=_parse_subspace, default="Full")
    sub.add_argument("--n", type=int, default=2)
    sub.add_argument("--p", type=_parse_p, default=2.0)
    sub.add_argument("--chains", type=_parse_count(1), default=None)
    sub.add_argument("--burn-in", type=_parse_count(0), default=None)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed for replay")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


@functools.cache
def build_parser():
    """The argument parser, built once per process.  It names no command
    function: main looks up _cmd_<subcommand> when the command runs."""
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

    e = subs.add_parser("estimate", help="print moment / variance / sigma estimates")
    e.add_argument("quantity", choices=("sigma", "var", "moment"))
    _add_draw_args(e)
    e.add_argument("--sampler", default="auto", choices=mo.SIGMA_SAMPLERS)
    e.add_argument("--functional", default="x1_sq")
    e.add_argument("--method", default="mc", choices=("mc", "quadrature"))
    e.add_argument("--samples", type=int, default=50_000)
    _add_common(e)

    s = subs.add_parser("sample", help="stream sampler output")
    s.add_argument("target", choices=("gas", "matrix"))
    _add_draw_args(s)
    s.add_argument("--samples", type=int, default=1000)
    _add_common(s)

    w = subs.add_parser("sweep", help="grid over (ensemble, n, p)")
    w.add_argument("--ensembles", type=lambda t: [_parse_ensemble(x) for x in t.split(";")],
                   default=[(2, 1, 0), (2, 2, 1)])
    w.add_argument("--n-list", type=lambda t: [int(x) for x in t.split(",")],
                   default=[2, 4])
    w.add_argument("--p-list", type=lambda t: [_parse_p(x) for x in t.split(",")],
                   default=[1.0, 2.0, math.inf])
    w.add_argument("--samples", type=int, default=20_000)
    _add_common(w)

    g = subs.add_parser("gamma", help="tabulate the Gamma-ratio quantities")
    g.add_argument("--d", type=float, default=4.0)
    g.add_argument("--p", type=float, default=2.0)
    g.add_argument("--q", type=float, default=2.0)
    g.add_argument("--grid", action="store_true")
    _add_common(g)
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code: a ValueError or KeyError
    is a usage error, an oracle failure exits with EXIT_ORACLE."""
    args = build_parser().parse_args(argv)
    command = globals()[f"_cmd_{args.subcommand}"]
    writer = _Writer(args)
    try:
        code = command(args, writer)
        writer.open()  # a body that wrote no record still leaves its header
        return code
    except mo.OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        writer.close()


if __name__ == "__main__":
    sys.exit(main())
