import csv
import io
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
from schattenlab.ensembles import SchattenSpec


def run_cli(*args):
    # a hung run fails its test rather than stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "schattenlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc


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


def test_verify_gamma_suite_exit_zero(tmp_path):
    out = tmp_path / "v.jsonl"
    proc = run_cli("verify", "--suite", "gamma", "--out", str(out))
    assert proc.returncode == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(out)]
    assert {r["claim_id"] for r in recs} == {
        "gamma-gap-positive",
        "gamma-gap-sandwich",
        "gamma-approximant-band",
    }
    assert all(r["passed"] for r in recs)
    assert proc.stderr.count("PASS") == 3


def test_estimate_sigma_record(tmp_path):
    out = tmp_path / "s.jsonl"
    proc = run_cli(
        "estimate", "sigma", "--field", "R", "--subspace", "full", "--n", "2",
        "--p", "2", "--samples", "50000", "--out", str(out),
    )
    assert proc.returncode == cli.EXIT_OK
    rec = json.loads(data_lines(out)[0])
    assert rec["record"] == "sigma"
    assert abs(rec["sigma_sq"] - 0.5) < 0.05


def test_estimate_moment_quadrature(tmp_path):
    out = tmp_path / "m.jsonl"
    proc = run_cli(
        "estimate", "moment", "--ensemble", "2,1,0", "--n", "2", "--p", "2",
        "--functional", "x1_sq", "--method", "quadrature", "--out", str(out),
    )
    assert proc.returncode == cli.EXIT_OK
    rec = json.loads(data_lines(out)[0])
    assert rec["method"] == "quadrature"


def test_oracle_failure_exit_code(tmp_path):
    # odd-a family at odd p has no smooth quadrature route
    proc = run_cli(
        "estimate", "moment", "--ensemble", "1,1,0", "--n", "2", "--p", "1",
        "--functional", "one", "--method", "quadrature", "--out", str(tmp_path / "x.jsonl"),
    )
    assert proc.returncode == cli.EXIT_ORACLE


def test_sample_replay_byte_identical(tmp_path):
    args = ("sample", "gas", "--ensemble", "2,1,0", "--n", "2", "--p", "inf",
            "--samples", "200", "--seed", "11")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(*args, "--out", str(out1)).returncode == cli.EXIT_OK
    assert run_cli(*args, "--out", str(out2)).returncode == cli.EXIT_OK
    assert data_lines(out1) == data_lines(out2)
    assert len(data_lines(out1)) == 200


def test_sample_csv_format(tmp_path):
    out = tmp_path / "c.csv"
    proc = run_cli("sample", "gas", "--ensemble", "2,1,0", "--n", "3", "--p", "2",
                   "--samples", "50", "--format", "csv", "--out", str(out))
    assert proc.returncode == cli.EXIT_OK
    lines = data_lines(out)
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 51


def test_verify_csv_keeps_every_detail(tmp_path):
    jl, cs = tmp_path / "v.jsonl", tmp_path / "v.csv"
    assert run_cli("verify", "--suite", "gamma", "--out", str(jl)).returncode == cli.EXIT_OK
    proc = run_cli("verify", "--suite", "gamma", "--format", "csv", "--out", str(cs))
    assert proc.returncode == cli.EXIT_OK
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
    proc = run_cli("sweep", "--ensembles", "2,1,0", "--n-list", "2", "--p-list",
                   "2,inf", "--samples", "4000", "--out", str(out))
    assert proc.returncode == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(out)]
    assert [r["p"] for r in recs] == [2.0, "inf"]
    assert all("combination" in r for r in recs)


def test_verify_narrowed_identities(tmp_path):
    out = tmp_path / "n.jsonl"
    proc = run_cli("verify", "--suite", "identities", "--ensemble", "2,1,0",
                   "--n", "2", "--p", "2", "--out", str(out))
    assert proc.returncode == cli.EXIT_OK
    recs = [json.loads(ln) for ln in data_lines(out)]
    assert len(recs) == 3
    assert all(r["passed"] for r in recs)
    assert all("(2,1,0),n=2,p=2" in r["claim_id"] for r in recs)


def test_usage_errors():
    assert run_cli("verify", "--suite", "wat").returncode == cli.EXIT_USAGE
    assert run_cli("estimate", "sigma", "--p", "0.3").returncode == cli.EXIT_USAGE
    assert run_cli().returncode == cli.EXIT_USAGE
    assert run_cli("sample", "gas", "--chains", "0").returncode == cli.EXIT_USAGE
    assert run_cli("sample", "gas", "--burn-in", "-1").returncode == cli.EXIT_USAGE
    assert run_cli("sample", "matrix", "--samples", "0").returncode == cli.EXIT_USAGE
    assert run_cli("estimate", "sigma", "--sampler", "hit_and_run",
                   "--samples", "0").returncode == cli.EXIT_USAGE
    # the exact p=inf route draws nothing, yet still refuses an empty budget
    assert run_cli("estimate", "var", "--p", "inf", "--samples", "0").returncode == cli.EXIT_USAGE
    # NaN must fail every bound, never reach a sampler's start loop
    for args in (("estimate", "var"), ("estimate", "moment"), ("sample", "gas"),
                 ("gamma",)):
        assert run_cli(*args, "--p", "nan").returncode == cli.EXIT_USAGE, args
    assert run_cli("gamma", "--d", "nan").returncode == cli.EXIT_USAGE
    assert run_cli("gamma", "--q", "nan").returncode == cli.EXIT_USAGE
    # the narrowing flags act on the identities suite alone
    assert run_cli("verify", "--suite", "gamma", "--ensemble", "9,9,9", "--n", "7",
                   "--p", "5", "--tol", "1e-30").returncode == cli.EXIT_USAGE
    assert run_cli("verify", "--suite", "all", "--tol", "1e-3").returncode == cli.EXIT_USAGE


def test_header_carries_config(tmp_path):
    out = tmp_path / "h.jsonl"
    run_cli("gamma", "--d", "9", "--p", "3", "--q", "2", "--seed", "5", "--out", str(out))
    with open(out, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
    assert head["record"] == "header"
    assert head["config"]["seed"] == 5
    assert head["config"]["options"]["d"] == 9.0
    assert head["schema"] == 1

    out = tmp_path / "hv.jsonl"
    run_cli("verify", "--suite", "gamma", "--seed", "6", "--out", str(out))
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
                     "--chains", "1", "--burn-in", "200", "--thinning", "2", "--seed", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    est = mo.sigma_pipeline(SchattenSpec("R", "Full", 2, 4.0), budget=2000, seed=3,
                            mcmc_kwargs={"n_chains": 1, "burn_in": 200, "thinning": 2})
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
                     "--chains", "4", "--thinning", "3", "--burn-in", "0", "--seed", "5",
                     "--out", str(out)]) == cli.EXIT_OK
    batch = sp.matrix_hit_and_run(SchattenSpec("R", "Full", 2, math.inf), n_samples=120,
                                  seed=5, n_chains=4, thinning=3, burn_in=0)
    rows = [json.loads(ln) for ln in data_lines(out)]
    assert [[r[f"x{i}"] for i in range(4)] for r in rows] == batch.points.tolist()


_VAR_COLUMNS = ("record,ensemble,n,p,term_quartic,term_cross,term_square,combination,std_err,"
                "cross_gap,cross_gap_se,coord_sq_mean,coord_sq_se,quart_ratio,quart_ratio_se,ess,"
                "method")
_ESTIMATES = {
    "sigma": (("estimate", "sigma", "--n", "2", "--p", "2"),
              "record,field,subspace,n,p,sigma_sq,std_err,var_norm_sq,mean_norm_sq,dim,"
              "mean_over_dim,ess,method"),
    "var": (("estimate", "var", "--n", "2", "--p", "2"), _VAR_COLUMNS),
    "sweep": (("sweep", "--ensembles", "2,1,0", "--n-list", "2", "--p-list", "2"), _VAR_COLUMNS),
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


def test_records_are_strict_json():
    # a check without an error bar has z NaN; numpy infinities must be spelled too
    check = vf.check_isotropic_constant_limit("R", 4, budget=3)
    stream = io.StringIO()
    writer = cli._Writer(cli.RunConfig("verify", {}, 0, "jsonl"), stream)
    writer.record(check.to_record())
    writer.record({"record": "x", "hi": np.float64(np.inf), "lo": np.float32(-np.inf),
                   "nan": math.nan})
    first, second = (_strict_json(line) for line in stream.getvalue().splitlines())
    assert first["z"] == "nan" and first["tolerance"] == "inf"
    assert second == {"record": "x", "hi": "inf", "lo": "-inf", "nan": "nan"}
