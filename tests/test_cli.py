import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from schattenlab import cli
from schattenlab import moments as mo
from schattenlab import samplers as sp
from schattenlab import verify as vf
from schattenlab.ensembles import FIELDS, SUBSPACES, SchattenSpec


def run_cli(*args):
    # a hung run fails its test rather than stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "schattenlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc


def run_main(*args):
    """The exit code of cli.main in this process; argparse exits with 2 on a
    usage error it catches itself."""
    try:
        return cli.main(list(args))
    except SystemExit as exc:
        return exc.code


def data_lines(path):
    """All records after the header (the only line carrying a timestamp)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [ln for ln in lines if '"record": "header"' not in ln and not ln.startswith("#")]


def test_gamma_value(tmp_path):
    out = tmp_path / "g.jsonl"
    proc = run_cli("gamma", "--d", "4", "--p", "2", "--q", "2", "--out", str(out))
    assert proc.returncode == cli.EXIT_OK
    assert "0.333333333333" in proc.stderr
    rec = json.loads(data_lines(out)[0])
    assert rec["ratio"] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_verify_gamma_suite_exit_zero(tmp_path, capsys):
    out = tmp_path / "v.jsonl"
    assert run_main("verify", "--suite", "gamma", "--out", str(out)) == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(out)]
    assert {r["claim_id"] for r in recs} == {
        "gamma-gap-positive",
        "gamma-gap-sandwich",
        "gamma-approximant-band",
    }
    assert all(r["passed"] for r in recs)
    assert capsys.readouterr().err.count("PASS") == 3


def test_estimate_sigma_record(tmp_path):
    out = tmp_path / "s.jsonl"
    code = run_main(
        "estimate", "sigma", "--field", "R", "--subspace", "full", "--n", "2",
        "--p", "2", "--samples", "50000", "--out", str(out),
    )
    assert code == cli.EXIT_OK
    rec = json.loads(data_lines(out)[0])
    assert rec["record"] == "sigma"
    assert abs(rec["sigma_sq"] - 0.5) < 0.05


def test_estimate_sigma_exact_opnorm_record(tmp_path):
    jl, cs = tmp_path / "s.jsonl", tmp_path / "s.csv"
    args = ("estimate", "sigma", "--p", "inf", "--field", "C", "--subspace", "antisymhermitian",
            "--n", "4")
    assert cli.main([*args, "--out", str(jl)]) == cli.EXIT_OK
    assert cli.main([*args, "--format", "csv", "--out", str(cs)]) == cli.EXIT_OK
    rec = json.loads(data_lines(jl)[0])
    assert (rec["sigma_sq"], rec["std_err"], rec["ess"], rec["method"]) == (
        0.5333333333333333, 0.0, "inf", "exact-selberg")
    assert data_lines(cs)[0] == _ESTIMATES["sigma"][1]


def test_estimate_moment_quadrature(tmp_path):
    out = tmp_path / "m.jsonl"
    code = run_main(
        "estimate", "moment", "--ensemble", "2,1,0", "--n", "2", "--p", "2",
        "--functional", "x1_sq", "--method", "quadrature", "--out", str(out),
    )
    assert code == cli.EXIT_OK
    rec = json.loads(data_lines(out)[0])
    assert rec["method"] == "quadrature"


def test_oracle_failure_exit_code(tmp_path):
    # odd-a family at odd p has no smooth quadrature route
    code = run_main(
        "estimate", "moment", "--ensemble", "1,1,0", "--n", "2", "--p", "1",
        "--functional", "one", "--method", "quadrature", "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == cli.EXIT_ORACLE


def test_sample_replay_byte_identical(tmp_path):
    args = ("sample", "gas", "--ensemble", "2,1,0", "--n", "2", "--p", "inf",
            "--samples", "200", "--seed", "11")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_main(*args, "--out", str(out1)) == cli.EXIT_OK
    assert run_main(*args, "--out", str(out2)) == cli.EXIT_OK
    assert data_lines(out1) == data_lines(out2)
    assert len(data_lines(out1)) == 200


def test_sample_csv_format(tmp_path):
    out = tmp_path / "c.csv"
    code = run_main("sample", "gas", "--ensemble", "2,1,0", "--n", "3", "--p", "2",
                    "--samples", "50", "--format", "csv", "--out", str(out))
    assert code == cli.EXIT_OK
    lines = data_lines(out)
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 51


def test_verify_csv_keeps_every_detail(tmp_path):
    jl, cs = tmp_path / "v.jsonl", tmp_path / "v.csv"
    assert run_main("verify", "--suite", "gamma", "--out", str(jl)) == cli.EXIT_OK
    code = run_main("verify", "--suite", "gamma", "--format", "csv", "--out", str(cs))
    assert code == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(jl)]
    rows = list(csv.DictReader(data_lines(cs)))
    assert [r["claim_id"] for r in rows] == [r["claim_id"] for r in recs]
    for rec, row in zip(recs, rows):
        details = json.loads(row["details"])
        assert details == {k: v for k, v in rec.items() if k not in row}
    assert json.loads(rows[1]["details"]) == {"lo_const": 0.02, "hi_const": 50.0}


@pytest.mark.parametrize("second", [{"d": 2.0, "extra": 3.0}, {"record": "gamma"}])
def test_csv_rejects_a_record_with_other_fields(tmp_path, monkeypatch, second):
    def drifting(args, writer):
        writer.record({"record": "gamma", "d": 1.0})
        writer.record({"record": "gamma", **second})
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_cmd_gamma", drifting)
    code = cli.main(["gamma", "--format", "csv", "--out", str(tmp_path / "g.csv")])
    assert code == cli.EXIT_USAGE


def test_sweep_emits_grid(tmp_path):
    out = tmp_path / "w.jsonl"
    code = run_main("sweep", "--ensembles", "2,1,0", "--n-list", "2", "--p-list",
                    "2,inf", "--samples", "4000", "--out", str(out))
    assert code == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(out)]
    assert [r["p"] for r in recs] == [2.0, "inf"]
    assert all("combination" in r for r in recs)


def test_sweep_writes_no_cross_gap_without_a_pair(tmp_path):
    out = tmp_path / "w.jsonl"
    code = run_main("sweep", "--ensembles", "2,1,0", "--n-list", "1,2", "--p-list", "2",
                    "--samples", "1", "--out", str(out))
    assert code == cli.EXIT_OK
    one, two = (json.loads(ln) for ln in data_lines(out))
    assert (one["cross_gap"], one["cross_gap_se"], one["term_cross"]) == ("nan", "nan", 0.0)
    assert two["cross_gap"] < 0.0 and two["cross_gap_se"] == 0.0


def test_gamma_grid_rows_are_strict_json(capsys):
    assert run_main("gamma", "--grid") == cli.EXIT_OK
    head, *rows = (_strict_json(ln) for ln in capsys.readouterr().out.splitlines())
    assert head["record"] == "header"
    assert len(rows) == 225 and all(r["record"] == "gamma" for r in rows)


def test_verify_narrowed_identities(tmp_path):
    out = tmp_path / "n.jsonl"
    code = run_main("verify", "--suite", "identities", "--ensemble", "2,1,0",
                    "--n", "2", "--p", "2", "--out", str(out))
    assert code == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(out)]
    assert len(recs) == 3
    assert all(r["passed"] for r in recs)
    assert all("(2,1,0),n=2,p=2" in r["claim_id"] for r in recs)


def test_usage_errors():
    assert run_main("verify", "--suite", "wat") == cli.EXIT_USAGE
    assert run_main("estimate", "sigma", "--p", "0.3") == cli.EXIT_USAGE
    assert run_main() == cli.EXIT_USAGE
    assert run_main("sample", "gas", "--chains", "0") == cli.EXIT_USAGE
    assert run_main("sample", "gas", "--burn-in", "-1") == cli.EXIT_USAGE
    # every chain keeps each state after burn-in: there is no thinning flag
    for args in (("sample", "gas"), ("estimate", "var"), ("estimate", "sigma")):
        assert run_main(*args, "--thinning", "2") == cli.EXIT_USAGE, args
    assert run_main("sample", "matrix", "--samples", "0") == cli.EXIT_USAGE
    assert run_main("estimate", "var", "--ensemble", "1,2") == cli.EXIT_USAGE
    assert run_main("estimate", "sigma", "--subspace", "bogus") == cli.EXIT_USAGE
    assert run_main("estimate", "sigma", "--sampler", "hit_and_run",
                    "--samples", "0") == cli.EXIT_USAGE
    # the exact routes draw nothing, yet still refuse an empty budget
    for quantity in ("var", "sigma"):
        for p in ("2", "inf"):
            assert run_main("estimate", quantity, "--p", p,
                            "--samples", "0") == cli.EXIT_USAGE, (quantity, p)
    # NaN must fail every bound, never reach a sampler's start loop
    for args in (("estimate", "var"), ("estimate", "moment"), ("sample", "gas"),
                 ("gamma",)):
        assert run_main(*args, "--p", "nan") == cli.EXIT_USAGE, args
    assert run_main("gamma", "--d", "nan") == cli.EXIT_USAGE
    assert run_main("gamma", "--q", "nan") == cli.EXIT_USAGE
    # an infinite argument has no Gamma ratio either, never a record of NaNs
    for flag in ("--d", "--p", "--q"):
        assert run_main("gamma", flag, "inf") == cli.EXIT_USAGE, flag
    # the narrowing flags act on the identities suite alone
    assert run_main("verify", "--suite", "gamma", "--ensemble", "9,9,9", "--n", "7",
                    "--p", "5", "--tol", "1e-30") == cli.EXIT_USAGE
    assert run_main("verify", "--suite", "all", "--tol", "1e-3") == cli.EXIT_USAGE
    # a narrowing that selects no identity configuration is no pass
    assert run_main("verify", "--suite", "identities", "--n", "7") == cli.EXIT_USAGE
    assert run_main("verify", "--suite", "identities", "--ensemble", "2,1,0", "--n", "2",
                    "--p", "inf") == cli.EXIT_USAGE
    # budget scales and tolerances are finite and positive
    for scale in ("inf", "1e400", "-1", "nan"):
        assert run_main("verify", "--suite", "entries",
                        "--budget-scale", scale) == cli.EXIT_USAGE, scale
    for tol in ("inf", "nan", "0"):
        assert run_main("verify", "--suite", "identities",
                        "--tol", tol) == cli.EXIT_USAGE, tol


_ANTISYM_1 = ("--field", "C", "--subspace", "antisymhermitian", "--n", "1", "--p", "2")
_PAIR_1 = ("estimate", "moment", "--ensemble", "2,1,0", "--n", "1", "--p", "2",
           "--functional", "x1sq_x2sq", "--samples", "100")


@pytest.mark.parametrize("args", [
    ("estimate", "sigma", *_ANTISYM_1),
    ("sample", "matrix", *_ANTISYM_1, "--samples", "3"),
    ("estimate", "sigma", *_ANTISYM_1, "--sampler", "hit_and_run"),
    (*_PAIR_1, "--method", "quadrature"),
    (*_PAIR_1, "--method", "mc"),
], ids=["sigma-exact", "sample-matrix", "sigma-hit-and-run", "pair-quadrature", "pair-mc"])
def test_a_ball_or_moment_without_a_pair_is_a_usage_error(capsys, args):
    # the 1 x 1 anti-Hermitian ball has dimension 0 and the one-coordinate
    # gas has no pair: each run names n and writes nothing, not even a header
    assert run_main(*args) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "n >= 2" in err and err.count("\n") == 1, err


_MOMENT = ("estimate", "moment", "--n", "2", "--p", "2", "--samples", "2000", "--functional")


@pytest.mark.parametrize("args,reason", [
    ((*_MOMENT, "pair_ratio:2"), "takes 2 argument(s)"),
    ((*_MOMENT, "norm2_sq*normpow"), "takes 1 argument(s)"),
    ((*_MOMENT, "normpow:4:9"), "takes 1 argument(s)"),
    ((*_MOMENT, "normpow:nan"), "finite xi >= 0"),
    ((*_MOMENT, "normpow:nan", "--method", "quadrature"), "finite xi >= 0"),
    ((*_MOMENT, "normpow:inf"), "finite xi >= 0"),
    ((*_MOMENT, "normpow:-2"), "finite xi >= 0"),
], ids=["pair-ratio-1-arg", "product-0-args", "normpow-2-args", "normpow-nan-mc",
        "normpow-nan-quadrature", "normpow-inf", "normpow-negative"])
def test_a_malformed_functional_id_is_a_usage_error(capsys, monkeypatch, args, reason):
    # a wrong argument count or an exponent that is not finite and >= 0 writes
    # nothing (no traceback, no NaN or divergent moment) and draws nothing
    monkeypatch.setattr(sp, "gas_sample", lambda *a, **kw: pytest.fail("drew before the id"))
    assert run_main(*args) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and reason in err and err.count("\n") == 1, err


_C_ONLY = ("AntiSymHermitian", "ComplexSymmetric")


@pytest.mark.parametrize("flags,expected", [
    *((("--field", "C" if s in _C_ONLY else "R", "--subspace", spelled),
       ("C" if s in _C_ONLY else "R", s, "exact-radial"))
      for s in SUBSPACES for spelled in (s.lower(), s.upper(), s)),
    *((("--field", f), (f, "Full", "exact-radial")) for f in FIELDS),
    (("--sampler", "auto"), ("R", "Full", "exact-radial")),
    (("--sampler", "hit_and_run", "--samples", "200"), ("R", "Full", "hit_and_run")),
    *((("--sampler", s), None) for s in ("Auto", "hit-and-run", "metropolis", "exact")),
], ids=lambda v: " ".join(v) if v and v[0].startswith("--") else None)
def test_every_field_subspace_and_sampler_name_is_accepted(capsys, flags, expected):
    # the subspace names in any letter case, every field, and exactly the two samplers
    code = run_main("estimate", "sigma", "--n", "2", "--p", "2", *flags)
    if expected is None:
        assert code == cli.EXIT_USAGE
        return
    assert code == cli.EXIT_OK
    rec = json.loads(capsys.readouterr().out.splitlines()[1])
    assert (rec["field"], rec["subspace"], rec["method"]) == expected


@pytest.mark.parametrize("args", [
    ("verify", "--suite", "entries", "--budget-scale", "inf"),
    ("verify", "--suite", "gamma", "--tol", "1e-3"),
    ("estimate", "var", "--n", "3", "--p", "3", "--samples", "0"),
])
def test_usage_error_leaves_out_untouched(tmp_path, args):
    # the output opens at the first record: an error before it creates no
    # file and keeps an existing file's bytes
    out = tmp_path / "f.jsonl"
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()
    out.write_bytes(b'{"record": "earlier run"}\n')
    assert cli.main([*args, "--out", str(out)]) == cli.EXIT_USAGE
    assert out.read_bytes() == b'{"record": "earlier run"}\n'


def test_header_carries_config(tmp_path):
    out = tmp_path / "h.jsonl"
    run_main("gamma", "--d", "9", "--p", "3", "--q", "2", "--seed", "5", "--out", str(out))
    with open(out, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
    assert head["record"] == "header"
    assert head["config"]["seed"] == 5
    assert head["config"]["options"]["d"] == 9.0
    assert head["schema"] == 1

    out = tmp_path / "hv.jsonl"
    run_main("verify", "--suite", "gamma", "--seed", "6", "--out", str(out))
    with open(out, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
    assert head["config"]["subcommand"] == "verify"
    assert head["config"]["seed"] == 6
    assert head["config"]["options"] == {"suite": "gamma", "budget_scale": 1.0, "ensemble": None,
                                         "n": None, "p": None, "tol": None}


def test_chain_flags_reach_the_sampler(tmp_path):
    # Metropolis behind estimate sigma at p=4, hit-and-run behind sample matrix
    # and behind estimate sigma --sampler hit_and_run: each record must equal the
    # direct library call with the same chain settings.
    out = tmp_path / "s.jsonl"
    assert cli.main(["estimate", "sigma", "--n", "2", "--p", "4", "--samples", "2000",
                     "--chains", "1", "--burn-in", "200", "--seed", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 4.0), budget=2000, seed=3,
                            mcmc_kwargs={"n_chains": 1, "burn_in": 200})
    rec = json.loads(data_lines(out)[0])
    assert (rec["sigma_sq"], rec["std_err"], rec["ess"]) == (est.sigma_sq, est.std_err, est.ess)

    out = tmp_path / "h.jsonl"
    assert cli.main(["estimate", "sigma", "--sampler", "hit_and_run", "--n", "2", "--p", "inf",
                     "--samples", "600", "--chains", "3", "--burn-in", "20", "--seed", "4",
                     "--out", str(out)]) == cli.EXIT_OK
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, math.inf), sampler="hit_and_run",
                            budget=600, seed=4, mcmc_kwargs={"n_chains": 3, "burn_in": 20})
    rec = json.loads(data_lines(out)[0])
    assert (rec["sigma_sq"], rec["std_err"]) == (est.sigma_sq, est.std_err)

    out = tmp_path / "m.jsonl"
    assert cli.main(["sample", "matrix", "--n", "2", "--p", "inf", "--samples", "120",
                     "--chains", "4", "--burn-in", "0", "--seed", "5",
                     "--out", str(out)]) == cli.EXIT_OK
    batch = sp.matrix_hit_and_run(SchattenSpec("R", "Full", 2, math.inf), n_samples=120,
                                  seed=5, n_chains=4, burn_in=0)
    rows = [json.loads(ln) for ln in data_lines(out)]
    assert [[r[f"x{i}"] for i in range(4)] for r in rows] == batch.points.tolist()


_VAR_COLUMNS = ("record,ensemble,n,p,term_quartic,term_cross,term_square,combination,std_err,"
                "cross_gap,cross_gap_se,coord_sq_mean,coord_sq_se,quart_ratio,quart_ratio_se,ess,"
                "method")
# sigma, var and sweep run at p=4: at p=2 they read closed forms and draw nothing
_ESTIMATES = {
    "sigma": (("estimate", "sigma", "--n", "2", "--p", "4"),
              "record,field,subspace,n,p,sigma_sq,std_err,var_norm_sq,mean_norm_sq,dim,"
              "mean_over_dim,ess,method"),
    "var": (("estimate", "var", "--n", "2", "--p", "4"), _VAR_COLUMNS),
    "sweep": (("sweep", "--ensembles", "2,1,0", "--n-list", "2", "--p-list", "4"), _VAR_COLUMNS),
    "moment": (("estimate", "moment", "--n", "2", "--p", "2"),
               "record,ensemble,n,p,functional,value,std_err,n_samples,ess,method,"
               "low_confidence"),
}


@pytest.mark.parametrize("kind", sorted(_ESTIMATES))
def test_estimate_records_keep_their_columns(tmp_path, kind):
    args, columns = _ESTIMATES[kind]
    jl, cs = tmp_path / "e.jsonl", tmp_path / "e.csv"
    assert cli.main([*args, "--samples", "100", "--out", str(jl)]) == cli.EXIT_OK
    assert cli.main([*args, "--samples", "100", "--format", "csv", "--out", str(cs)]) == cli.EXIT_OK
    assert data_lines(cs)[0] == columns
    assert list(json.loads(data_lines(jl)[0])) == sorted(columns.split(","))


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("kind", sorted(_ESTIMATES))
def test_too_few_draws_write_an_infinite_error_bar(tmp_path, kind, samples):
    out = tmp_path / "e.jsonl"
    args = [*_ESTIMATES[kind][0], "--samples", str(samples), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    rec = json.loads(data_lines(out)[0])
    errors = {k: v for k, v in rec.items() if k == "std_err" or k.endswith("_se")}
    assert errors and all(v == "inf" for v in errors.values()), errors


def _strict_json(line):
    """json.loads that refuses the non-standard NaN and Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(line, parse_constant=reject)


def _writer(*argv):
    """The writer `schattenlab verify` builds from these arguments."""
    return cli._Writer(cli.build_parser().parse_args(["verify", *argv]))


def test_records_are_strict_json(capsys):
    # a check without an error bar has z NaN; numpy infinities must be spelled too
    check = vf.check_isotropic_constant_limit("R", 4, budget=3)
    writer = _writer()
    writer.record(check, record="check")
    writer.record({"record": "x", "hi": np.float64(np.inf), "lo": np.float32(-np.inf),
                   "nan": math.nan})
    head, first, second = (_strict_json(line) for line in capsys.readouterr().out.splitlines())
    assert head["record"] == "header"
    assert first["z"] == "nan" and first["tolerance"] == "inf"
    assert second == {"record": "x", "hi": "inf", "lo": "-inf", "nan": "nan"}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_numpy_booleans_are_written_as_booleans(capsys, fmt):
    def written(flag):
        rep = vf.CheckReport("flag", flag, 1.0, 1.0, 0.0, "exact", "test", {"ok": flag})
        _writer("--format", fmt).record(rep, record="check")
        return capsys.readouterr().out.splitlines()[1:]

    lines = written(np.bool_(True))
    assert lines == written(True)
    if fmt == "jsonl":
        assert '"passed": true' in lines[0] and '"ok": true' in lines[0]
        assert _strict_json(lines[0])["ok"] is True
    else:
        row = next(csv.DictReader(lines))
        assert row["passed"] == "true" and row["details"] == '{"ok": true}'


@pytest.mark.parametrize("samples, flag", [(100, "true"), (1000, "false")])
def test_csv_booleans_are_spelled_as_in_json(tmp_path, samples, flag):
    # the scalar low_confidence column reads like the JSON details column
    out = tmp_path / "m.csv"
    assert cli.main(["estimate", "moment", "--n", "2", "--p", "2", "--samples", str(samples),
                     "--format", "csv", "--out", str(out)]) == cli.EXIT_OK
    assert next(csv.DictReader(data_lines(out)))["low_confidence"] == flag
