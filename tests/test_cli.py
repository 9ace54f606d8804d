"""End-to-end tests of the command-line surface and its exit-code contract:
0 success/pass, 1 usage/parse error, 2 numerical failure, 3 verdict fail."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opcheck.cli as cli
from opcheck import drazin as dz
from opcheck import matcore as mc
from opcheck.cli import main
from opcheck.drazin import index_of
from opcheck.errors import IllConditioned
from opcheck.generators import Family, InstanceSpec
from opcheck.kernels import ClassificationResult
from opcheck.suites import SuiteConfig, SuiteReport, TrialFailure, available_suites


@pytest.fixture
def fixture_files(tmp_path):
    paths = {}
    mats = {
        "drazin3": mc.block_diag(2 * mc.eye(1), np.array([[0, 1], [0, 0]], dtype=complex)),
        "jordan": np.array([[1, 1], [0, 1]], dtype=complex),
        "proj_nil": mc.block_diag(mc.eye(1), np.array([[0, 1], [0, 0]], dtype=complex)),
        "nonsquare": np.ones((2, 3), dtype=complex),
        "oblique": np.array([[1.0, 1e9], [0.0, 0.0]], dtype=complex),
        "skew_projector": np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
        "e12": np.array([[0, 1], [0, 0]], dtype=complex),
    }
    for name, mat in mats.items():
        p = tmp_path / f"{name}.json"
        mc.save_matrix(p, mat)
        paths[name] = str(p)
    return paths


class TestDrazinCommand:
    def test_report(self, fixture_files, capsys):
        assert main(["drazin", fixture_files["drazin3"]]) == 0
        out = capsys.readouterr().out
        assert "index:           2" in out
        assert "0.5" in out

    def test_json_report(self, fixture_files, capsys):
        assert main(["drazin", fixture_files["drazin3"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == 2
        assert doc["drazin_inverse"]["data"][0][0] == [0.5, 0.0]

    def test_json_reports_core_basis_condition(self, fixture_files, capsys):
        assert main(["drazin", fixture_files["drazin3"], "--json"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["core_basis_condition"] - 1.0) < 1e-12
        # range span(e1) and null space span(e1 - e2) meet at 45 degrees
        assert main(["drazin", fixture_files["skew_projector"], "--json"]) == 0
        kappa = json.loads(capsys.readouterr().out)["core_basis_condition"]
        assert abs(kappa - (1.0 + np.sqrt(2.0))) < 1e-12

    def test_nonsquare_is_usage_error(self, fixture_files):
        assert main(["drazin", fixture_files["nonsquare"]]) == 1

    def test_missing_file_is_usage_error(self):
        assert main(["drazin", "/nonexistent/file.json"]) == 1

    def test_ill_conditioned_is_numerical_error(self, fixture_files, capsys):
        assert main(["drazin", fixture_files["oblique"]]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_invertible_input_reports_index_zero(self, fixture_files, capsys):
        assert main(["drazin", fixture_files["jordan"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == 0 and doc["dim_nil"] == 0

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_axiom_residuals_are_computed_once(self, fixture_files, flags, monkeypatch):
        calls = []
        residuals = dz.DrazinData.residuals_for
        monkeypatch.setattr(
            dz.DrazinData, "residuals_for", lambda *a: calls.append(1) or residuals(*a)
        )
        assert main(["drazin", fixture_files["drazin3"], *flags]) == 0
        assert len(calls) == 1


class TestClassifyCommand:
    def test_minimal_order_three(self, fixture_files, capsys):
        rc = main(
            ["classify", fixture_files["jordan"], "--transform", "delta",
             "--pair", "adjoint", "--max-order", "5"]
        )
        assert rc == 0
        assert "minimal order: 3" in capsys.readouterr().out

    def test_triangle_matches(self, fixture_files, capsys):
        rc = main(
            ["classify", fixture_files["jordan"], "--transform", "triangle",
             "--pair", "adjoint", "--max-order", "6", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimal_order"] == 3

    def test_none_below_bound(self, fixture_files, capsys):
        rc = main(
            ["classify", fixture_files["e12"], "--transform", "triangle",
             "--pair", "adjoint", "--max-order", "5"]
        )
        assert rc == 0
        assert "none <= 5" in capsys.readouterr().out

    def test_explicit_weight(self, fixture_files, tmp_path, capsys):
        w = tmp_path / "w.json"
        mc.save_matrix(w, mc.eye(2))
        rc = main(
            ["classify", fixture_files["jordan"], "--transform", "delta",
             "--pair", "adjoint", "--weight", str(w), "--max-order", "4"]
        )
        assert rc == 0
        assert "minimal order: 3" in capsys.readouterr().out

    def test_bad_flag_usage_error(self, fixture_files):
        assert main(["classify", fixture_files["jordan"], "--transform", "spiral",
                     "--pair", "adjoint"]) == 1


class TestKernelCommand:
    def test_stdout_document(self, fixture_files, capsys):
        rc = main(
            ["kernel", fixture_files["proj_nil"], "--transform", "triangle",
             "--pair", "adjoint", "--order", "1"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 1
        top_left = doc["basis"][0]["data"][0][0]
        assert abs(top_left[0] - 1.0) < 1e-9 and abs(top_left[1]) < 1e-9

    def test_block_norms_for_drazin_pair(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "basis.json"
        rc = main(
            ["kernel", fixture_files["drazin3"], "--transform", "triangle",
             "--pair", "drazin-adjoint", "--order", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == len(doc["block_norms"]) == len(doc["basis"])
        for rec in doc["block_norms"]:
            assert list(rec) == ["x11", "x12", "x21", "x22"]
            assert rec["x12"] < 1e-7 and rec["x21"] < 1e-7 and rec["x22"] < 1e-7

    def test_out_file_matches_stdout_document(self, fixture_files, tmp_path, capsys):
        out = tmp_path / "basis.json"
        argv = ["kernel", fixture_files["drazin3"], "--transform", "delta",
                "--pair", "drazin-adjoint", "--order", "2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        written = out.read_text()
        assert printed == written + "\n" and json.loads(written)["dim"] > 0

    def test_failed_decomposition_keeps_the_dense_kernel(self, fixture_files, monkeypatch, capsys):
        argv = ["kernel", fixture_files["drazin3"], "--transform", "delta", "--order", "2"]
        assert main(argv + ["--pair", "adjoint"]) == 0
        expected = json.loads(capsys.readouterr().out)["dim"]

        def fail(a, policy):
            raise IllConditioned("forced")

        monkeypatch.setattr(cli, "core_nilpotent_decompose", fail)
        assert main(argv + ["--pair", "adjoint"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == expected == 4
        assert main(argv + ["--pair", "drazin-adjoint"]) == 2


class TestExampleCommand:
    def test_writes_instance_and_certification(self, tmp_path, capsys):
        out = tmp_path / "inst"
        rc = main(
            ["example", "--family", "drazin-block", "--dims", "2,2",
             "--orders", "2", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads((out / "instance.json").read_text())
        assert doc["family"] == "drazin-block"
        assert doc["spec"]["seed"] == 5
        a = mc.load_matrix(out / "A.json")
        assert index_of(a, mc.DEFAULT_POLICY) == 2

    @pytest.mark.parametrize(
        "family, dims, orders",
        [("unitary", "4", ""), ("nilpotent", "4", "3"), ("invertible", "4", ""),
         ("drazin-block", "3,2", "2"), ("ab-zero", "2,4", "2,1"),
         ("hypothesis1", "2,2,1,1", "2,1"), ("remark3", "", ""),
         ("scalar-plus-nilpotent", "4", "2")],
    )
    def test_instance_file_names_its_family(self, family, dims, orders, tmp_path, capsys):
        # written once here and once by a fresh process: the files depend
        # on the seed alone, byte for byte
        argv = ["example", "--family", family, "--dims", dims, "--orders", orders, "--seed", "4"]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        _assert_exit(_run_opcheck(argv + ["--out", str(tmp_path / "two")]), 0)
        files = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
        for name in files:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        doc = json.loads((tmp_path / "one" / "instance.json").read_text())
        assert list(doc) == ["family", "meta", "certified", "matrices", "spec"]
        assert doc["family"] == doc["spec"]["family"] == family

    def test_deterministic_output(self, tmp_path):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert main(["example", "--family", "remark3", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append((out / "A.json").read_text())
        assert outs[0] == outs[1]

    def test_roundtrip_through_drazin_command(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert main(["example", "--family", "drazin-block", "--dims", "1,2",
                     "--orders", "2", "--seed", "9", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["drazin", str(out / "A.json"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index"] == 2
        assert all(v <= 1e-8 for v in doc["axiom_residuals"].values())

    def test_roundtrip_through_classify_command(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert main(["example", "--family", "scalar-plus-nilpotent", "--dims", "3",
                     "--orders", "2", "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        # real scalar plus 2-nilpotent: selfadjointness defect dies by order 3
        assert main(["classify", str(out / "A.json"), "--transform", "delta",
                     "--pair", "adjoint", "--max-order", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] and doc["minimal_order"] <= 3

    def test_bad_arity_usage_error(self, tmp_path):
        rc = main(["example", "--family", "nilpotent", "--dims", "3",
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_dims_string(self, tmp_path):
        rc = main(["example", "--family", "unitary", "--dims", "3;x",
                   "--out", str(tmp_path)])
        assert rc == 1


class TestVerifyCommand:
    def test_single_suite_pass(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        rc = main(["verify", "--suite", "remark3", "--trials", "8",
                   "--seed", "7", "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["suite"] == "remark3" and doc["verdict"] == "pass"

    def test_unknown_suite(self):
        assert main(["verify", "--suite", "bogus"]) == 1

    def test_verdict_failure_maps_to_exit_3(self, monkeypatch, capsys):
        def fake_run(cfg):
            rep = SuiteReport(
                suite=cfg.suite, config=cfg, trials=cfg.trials, passes=0,
                skips=0, generation_failures=0,
            )
            rep.failures.append(TrialFailure(0, "synthetic", 1.0, 0.0, {}))
            return rep

        monkeypatch.setattr(cli, "run_suite", fake_run)
        assert main(["verify", "--suite", "thm1", "--trials", "1"]) == 3

    def test_all_runs_every_suite(self, tmp_path, capsys, monkeypatch):
        seen = []

        def fake_run(cfg):
            seen.append(cfg.suite)
            return SuiteReport(
                suite=cfg.suite, config=cfg, trials=cfg.trials, passes=cfg.trials,
                skips=0, generation_failures=0,
            )

        monkeypatch.setattr(cli, "run_suite", fake_run)
        report = tmp_path / "all.json"
        assert main(["verify", "--trials", "1", "--report", str(report)]) == 0
        assert seen == list(available_suites())
        assert isinstance(json.loads(report.read_text()), list)


class TestPolicyOverride:
    def test_env_policy_changes_outcome(self, fixture_files, tmp_path, capsys, monkeypatch):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"atol": 100.0}))
        monkeypatch.setenv("OPCHECK_POLICY", str(policy))
        rc = main(["classify", fixture_files["jordan"], "--transform", "delta",
                   "--pair", "adjoint", "--max-order", "5"])
        assert rc == 0
        # with a huge absolute tolerance every order passes immediately
        assert "minimal order: 1" in capsys.readouterr().out

    def test_policy_is_read_on_every_call(self, fixture_files, tmp_path, capsys, monkeypatch):
        argv = ["classify", fixture_files["jordan"], "--transform", "delta",
                "--pair", "adjoint", "--max-order", "5"]
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"atol": 100.0}))
        for env, expected in ((None, 3), (str(policy), 1), (None, 3)):
            if env is None:
                monkeypatch.delenv("OPCHECK_POLICY", raising=False)
            else:
                monkeypatch.setenv("OPCHECK_POLICY", env)
            assert main(argv) == 0
            assert f"minimal order: {expected}" in capsys.readouterr().out

    def test_bad_policy_file_is_usage_error(self, fixture_files, tmp_path, monkeypatch):
        policy = tmp_path / "policy.json"
        policy.write_text("{broken")
        monkeypatch.setenv("OPCHECK_POLICY", str(policy))
        assert main(["drazin", fixture_files["drazin3"]]) == 1


def test_no_command_is_usage_error():
    assert main([]) == 1


def _run_opcheck(argv, policy=None):
    """Run ``opcheck`` in a fresh process, so an uncaught exception would
    show as a traceback and nothing is shared with earlier calls; ``policy``
    is the path ``OPCHECK_POLICY`` names, if any."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("OPCHECK_POLICY", None)
    if policy is not None:
        env["OPCHECK_POLICY"] = str(policy)
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered as by default
    return subprocess.run(
        [sys.executable, "-m", "opcheck", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _assert_exit(proc, code, prefix=None):
    """``proc`` exited with ``code``, wrote no traceback and no numpy
    RuntimeWarning to stderr, and named a usage error or numerical failure
    (argparse's rejections pass their own ``prefix``)."""
    assert proc.returncode == code, proc.stderr
    prefix = prefix or {1: "opcheck: error:", 2: "opcheck: numerical failure:"}.get(code)
    assert prefix is None or prefix in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_verify_prints_one_line_per_suite_into_a_pipe():
    # stdout is a pipe, so block-buffered: a worker forked while the
    # previous suite's line sits in the buffer must not print it again
    proc = _run_opcheck(["verify", "--suite", "all", "--trials", "6"])
    _assert_exit(proc, 0)
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(available_suites())


def test_failing_report_through_the_cli_is_strict_json(tmp_path):
    # no residual meets a zero absolute and a sub-epsilon relative tolerance,
    # so most suites fail and the report serialises their failures
    policy = tmp_path / "policy.json"
    policy.write_text('{"rtol": 1e-17, "atol": 0}')
    report = tmp_path / "r.json"
    proc = _run_opcheck(["verify", "--suite", "all", "--trials", "30", "--seed", "2",
                         "--report", str(report)], policy)
    _assert_exit(proc, 3)
    docs = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert [d["suite"] for d in docs] == list(available_suites())
    failures = [f for d in docs for f in d["failures"]]
    assert failures
    assert all(d["verdict"] == ("fail" if d["failures"] else "pass") for d in docs)
    for f in failures:
        assert f["clause"] and f["residual"] > f["threshold"], f
        assert f["detail"] and all(isinstance(v, str) for v in f["detail"].values()), f


def test_documents_take_their_keys_from_the_dataclass_fields(fixture_files, tmp_path, capsys):
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    failure = TrialFailure(0, "synthetic", 1.0, 0.5, {"n": 3, "s": "x"})
    rep = SuiteReport(suite="thm1", config=SuiteConfig("thm1"), trials=1, passes=0, skips=0,
                      generation_failures=0, failures=[failure])
    doc = rep.to_json()
    assert list(doc) == names(SuiteReport) + ["verdict"]
    assert list(doc["failures"][0]) == names(TrialFailure)
    assert doc["failures"][0]["detail"] == {"n": "3", "s": "'x'"}
    assert main(["classify", fixture_files["jordan"], "--transform", "delta", "--pair",
                 "adjoint", "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == names(ClassificationResult)
    out = tmp_path / "ex"
    assert main(["example", "--family", "drazin-block", "--dims", "2,1", "--orders", "1",
                 "--seed", "4", "--out", str(out)]) == 0
    spec = json.loads((out / "instance.json").read_text())["spec"]
    assert list(spec) == names(InstanceSpec)
    assert spec == {"family": "drazin-block", "dims": [2, 1], "orders": [1], "seed": 4}


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "{drazin3}", "--transform", "delta", "--pair", "adjoint", "--max-order", "0"],
        ["kernel", "{drazin3}", "--transform", "delta", "--pair", "adjoint", "--order", "0"],
        ["verify", "--trials", "0"],
        ["verify", "--dim-max", "1"],
        ["verify", "--order-max", "0"],
        # the order is checked before A's ill-conditioned splitting is attempted
        ["kernel", "{oblique}", "--transform", "delta", "--pair", "drazin-adjoint", "--order", "0"],
        ["classify", "{oblique}", "--transform", "delta", "--pair", "drazin", "--max-order", "0"],
    ],
    ids=["classify-max-order", "kernel-order", "verify-trials", "verify-dim-max", "verify-order-max",
         "kernel-order-ill-conditioned", "classify-max-order-ill-conditioned"],
)
def test_bad_order_or_count_is_usage_error(argv, fixture_files):
    _assert_exit(_run_opcheck([a.format(**fixture_files) for a in argv]), 1)


_CLASSIFY_JORDAN = ["classify", "{jordan}", "--transform", "delta", "--pair", "adjoint"]


@pytest.mark.parametrize(
    "content, argv",
    [
        # accepted, these gave NaN thresholds and no minimal order <= 6, where
        # the order is 3;
        (b'{"rtol": NaN}', _CLASSIFY_JORDAN),
        # minimal order 1;
        (b'{"atol": Infinity}', _CLASSIFY_JORDAN),
        # and index 1 with a zero Drazin inverse of an invertible matrix
        (b'{"rank_rtol": NaN}', ["drazin", "{jordan}"]),
        (b'{"cond_max": -Infinity}', ["drazin", "{jordan}"]),
        (b'{"atol": 1' + b"0" * 400 + b"}", ["drazin", "{jordan}"]),
        (b"[" * 100_000, ["drazin", "{jordan}"]),
        # accepted by float(), these ran with atol = 1.0, 0.0 and 1e-3
        (b'{"atol": true}', _CLASSIFY_JORDAN),
        (b'{"atol": false}', _CLASSIFY_JORDAN),
        (b'{"atol": "1e-3"}', _CLASSIFY_JORDAN),
        (b'{"rtol": null}', ["drazin", "{jordan}"]),
        (b'{"rank_rtol": [1]}', ["drazin", "{jordan}"]),
    ],
    ids=["rtol-nan", "atol-inf", "rank-rtol-nan", "cond-max-neg-inf", "400-digit-integer",
         "deep-nesting", "atol-true", "atol-false", "atol-numeric-string", "rtol-null",
         "rank-rtol-array"],
)
def test_bad_policy_file_is_usage_error_before_any_output(content, argv, fixture_files, tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_bytes(content)
    proc = _run_opcheck([a.format(**fixture_files) for a in argv], policy)
    _assert_exit(proc, 1)
    assert proc.stdout == ""
    assert "bad policy file" in proc.stderr


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]}\xff', "cannot read matrix file"),
        (b"[" * 100_000, "cannot read matrix file"),
        (b'{"rows": 1, "cols": 1, "data": [[[' + b"9" * 400 + b', 0]]]}', "beyond the double range"),
        (b'{"rows": 1, "cols": 1, "data": [[["a", 0]]]}', "matrix entries must hold numbers"),
        (b'{"rows": 1, "cols": 1}', "missing matrix field"),
    ],
    ids=["non-utf8", "deep-nesting", "400-digit-integer", "string-entry", "no-data"],
)
def test_malformed_matrix_file_is_usage_error(content, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    proc = _run_opcheck(["drazin", str(path)])
    _assert_exit(proc, 1)
    assert message in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "{drazin3}", "--transform", "delta", "--pair", "adjoint", "--order", "1",
         "--out", "{missing}/x.json"],
        ["verify", "--suite", "remark3", "--trials", "2", "--report", "{missing}/r.json"],
        ["example", "--family", "drazin-block", "--dims", "2,1", "--orders", "1",
         "--out", "{drazin3}"],
    ],
    ids=["kernel-out", "verify-report", "example-out-is-a-file"],
)
def test_unwritable_output_is_usage_error(argv, fixture_files, tmp_path):
    names = dict(fixture_files, missing=str(tmp_path / "missing"))
    _assert_exit(_run_opcheck([a.format(**names) for a in argv]), 1)


@pytest.mark.parametrize("kind", ["delta", "triangle"])
def test_overflowing_kernel_is_numerical_failure(kind, tmp_path):
    # finite entries whose order-2 transform matrix overflows to inf
    path = tmp_path / "huge.json"
    mc.save_matrix(path, np.array([[1e200, 1e200], [0, 1e200]], dtype=complex))
    proc = _run_opcheck(["kernel", str(path), "--transform", kind, "--pair", "adjoint",
                         "--order", "2"])
    _assert_exit(proc, 2)


_NAN_SQUARE = [[0, 0], [-1e200 - 1e200j, -1e300 - 1e300j]]
_SIGMA_OVERFLOW = [[0, 1.5e308, 1.5e308], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize(
    "entries, argv",
    [
        ([[1e100, 1e100], [0, 1e100]], ["classify", "--transform", "delta", "--pair", "adjoint"]),
        ([[1e200, 1e200], [0, 1e200]], ["classify", "--transform", "delta", "--pair", "adjoint"]),
        ([[1e200, 1e200], [0, 0]], ["drazin"]),
        ([[1e200, 1e200], [0, 0]], ["kernel", "--transform", "triangle", "--pair", "adjoint",
                                    "--order", "2"]),
        # A^2 has NaN entries, which once reached an SVD that did not converge
        (_NAN_SQUARE, ["drazin"]),
        (_NAN_SQUARE, ["classify", "--transform", "delta", "--pair", "drazin"]),
        # the thresholds stay finite, but the scan's order-2 defect overflows
        ([[1e155, 1e155], [0, 1e155]], ["classify", "--transform", "delta", "--pair", "drazin",
                                        "--json"]),
        # finite entries whose largest singular value overflows; drazin gave
        # index 1 and a zero Drazin inverse with exit 0, where the index is 2
        (_SIGMA_OVERFLOW, ["drazin", "--json"]),
        (_SIGMA_OVERFLOW, ["classify", "--transform", "delta", "--pair", "drazin"]),
        # the index search gives A^2 rank 0, and A^3 overflows in the
        # residual of A^(p+1) A_d = A^p, which --json printed as NaN
        ([[0, 1e-10j], [1e200, 0]], ["drazin", "--json"]),
        # C(1030, 515) is beyond the double range, whatever the entries; a
        # core-nilpotent split reaches the same check through its blocks
        ([[1, 0], [0, 1]], ["kernel", "--transform", "triangle", "--pair", "self",
                            "--order", "1030"]),
        ([[2, 0, 0], [0, 0, 1], [0, 0, 0]], ["kernel", "--transform", "delta", "--pair",
                                             "adjoint", "--order", "1030"]),
    ],
    ids=["classify-1e100", "classify-1e200", "drazin-singular", "kernel-singular",
         "drazin-nan-square", "classify-nan-square", "classify-scan-1e155",
         "drazin-sigma-overflow", "classify-sigma-overflow", "drazin-residual-overflow",
         "kernel-order-1030", "kernel-split-order-1030"],
)
def test_overflowing_scale_is_numerical_failure(entries, argv, tmp_path):
    # finite entries whose defect scale, defect or power of A overflows
    path = tmp_path / "huge.json"
    mc.save_matrix(path, np.array(entries, dtype=complex))
    proc = _run_opcheck([argv[0], str(path), *argv[1:]])
    _assert_exit(proc, 2)
    assert proc.stdout == ""


def test_drazin_of_an_oblique_matrix_near_the_double_range_has_index_one(tmp_path):
    # A^2 = [[1e300, 1e307], [0, 0]] keeps rank 1 above the finite rank floor
    path = tmp_path / "oblique.json"
    mc.save_matrix(path, np.array([[1e150, 1e157], [0, 0]], dtype=complex))
    proc = _run_opcheck(["drazin", str(path), "--json"])
    _assert_exit(proc, 0)
    assert json.loads(proc.stdout)["index"] == 1


def test_orders_with_overflowing_binomials_are_generation_errors(tmp_path):
    report = tmp_path / "report.json"
    proc = _run_opcheck(["verify", "--suite", "thm1", "--trials", "40", "--order-max", "1100",
                         "--seed", "0", "--report", str(report)])
    # thm1 fails at these orders (the strict xfail of ROADMAP item 6 in test_suites.py)
    _assert_exit(proc, 3)
    assert proc.stdout.startswith("thm1 ")
    errors = json.loads(report.read_text())["generation_errors"]
    assert any("binomial coefficients overflow" in e["error"] for e in errors)


def test_parser_is_built_once_and_reused_across_calls(fixture_files, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    out = str(tmp_path / "basis.json")
    calls = [
        (1, ["classify", fixture_files["jordan"], "--transform", "spiral", "--pair", "adjoint"]),
        (0, ["classify", fixture_files["drazin3"], "--transform", "delta", "--pair", "drazin",
             "--max-order", "4", "--json"]),
        (0, ["kernel", fixture_files["drazin3"], "--transform", "delta", "--pair",
             "drazin-adjoint", "--order", "2", "--out", out]),
    ]
    for code, argv in calls:
        fresh = _run_opcheck(argv)
        _assert_exit(fresh, code, "usage: opcheck classify" if code else None)
        written = None
        if "--out" in argv:
            written = Path(out).read_text()
            Path(out).unlink()
        assert main(argv) == code
        got = capsys.readouterr()
        assert (got.out, got.err) == (fresh.stdout, fresh.stderr)
        if written is not None:
            assert Path(out).read_text() == written


def test_handlers_are_looked_up_when_called(fixture_files, monkeypatch):
    assert main(["drazin", fixture_files["drazin3"]]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_drazin", lambda args, policy: seen.append(args.matrix) or 0)
    assert main(["drazin", fixture_files["jordan"]]) == 0
    assert seen == [fixture_files["jordan"]]


@pytest.mark.parametrize(
    "family, dims, orders",
    [("unitary", "-1", ""), ("nilpotent", "-2", "1"), ("remark3", "-1", ""),
     ("remark3", "2,1", ""), ("remark3", "", "1")],
)
def test_example_with_bad_dims_or_orders_is_usage_error(family, dims, orders, tmp_path):
    out = tmp_path / "ex"
    _assert_exit(_run_opcheck(["example", "--family", family, "--dims", dims,
                               "--orders", orders, "--out", str(out)]), 1)
    assert not out.exists()


# entry moduli from the smallest to the largest normal exponents, both signs
_ENTRY = st.sampled_from(
    [0.0] + [s * 10.0**e for e in (-300, -100, -10, 0, 10, 100, 200, 300) for s in (1, -1)]
)


def _matrix_docs(entry=_ENTRY):
    def doc(rows, cols, entries):
        it = iter(entries)
        data = [[[next(it), next(it)] for _ in range(cols)] for _ in range(rows)]
        return {"rows": rows, "cols": cols, "data": data}

    return st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda rc: st.builds(doc, st.just(rc[0]), st.just(rc[1]),
                             st.lists(entry, min_size=2 * rc[0] * rc[1],
                                      max_size=2 * rc[0] * rc[1]))
    )


def _matrix_texts():
    """Matrix files: four draws in six are documents with finite entries,
    one has NaN/Infinity entries too, and one is a truncated document."""
    finite = _matrix_docs().map(json.dumps)
    non_finite = _matrix_docs(_ENTRY | st.sampled_from([math.nan, math.inf, -math.inf]))
    malformed = finite.flatmap(lambda t: st.integers(0, len(t) - 1).map(lambda k: t[:k]))
    choices = [finite] * 4 + [non_finite.map(json.dumps), malformed]
    return st.sampled_from(choices).flatmap(lambda strategy: strategy)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_main(argv):
    """(exit code, stdout) of ``main(argv)``. An exception escaping it is
    what a traceback from the ``opcheck`` script would show, and a numpy
    RuntimeWarning is what the script would write to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    return rc, out.getvalue()


# the scan's defect overflows from order 2 on; it once exited 0 printing NaN
_SCAN_OVERFLOW = {"rows": 2, "cols": 2,
                  "data": [[[1e155, 0], [1e155, 0]], [[0, 0], [1e155, 0]]]}


@settings(max_examples=150, deadline=None)
@given(
    text=_matrix_texts(),
    command=st.sampled_from(["drazin", "classify", "kernel"]),
    transform=st.sampled_from(["triangle", "delta"]),
    pair=st.sampled_from(["self", "adjoint", "drazin", "drazin-adjoint"]),
    order=st.integers(-1, 6),
    as_json=st.booleans(),
)
@example(text=json.dumps(_SCAN_OVERFLOW), command="classify", transform="delta", pair="drazin",
         order=6, as_json=True)
def test_fuzzed_matrix_commands_end_with_a_documented_exit_code(
    text, command, transform, pair, order, as_json
):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if command == "drazin":
            argv = ["drazin", path]
        else:
            flag = "--max-order" if command == "classify" else "--order"
            argv = [command, path, "--transform", transform, "--pair", pair, flag, str(order)]
        if as_json and command != "kernel":
            argv.append("--json")
        rc, out = _run_main(argv)
    assert rc in (0, 1, 2, 3)
    if rc == 0 and (as_json or command == "kernel"):
        # strict JSON: a NaN or infinite number is not valid
        json.loads(out, parse_constant=_reject_constant)


# the dims and orders each family takes; most draws keep them, so that the
# builders run, and the rest try any arity
_ARITY = {
    "unitary": (1, 0), "nilpotent": (1, 1), "invertible": (1, 0), "drazin-block": (2, 1),
    "ab-zero": (2, 2), "hypothesis1": (4, 2), "remark3": (1, 0), "scalar-plus-nilpotent": (1, 1),
}


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from([f.value for f in Family]), data=st.data(), seed=st.integers(0, 3)
)
def test_fuzzed_example_ends_with_a_documented_exit_code(family, data, seed):
    ndims, norders = _ARITY[family]
    if data.draw(st.integers(0, 3)) == 0:
        ndims, norders = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2))
    dims = data.draw(st.lists(st.integers(-3, 6), min_size=ndims, max_size=ndims)
                     .filter(lambda d: sum(map(abs, d)) <= 8))
    orders = data.draw(st.lists(st.integers(-1, 6), min_size=norders, max_size=norders))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["example", "--family", family, "--dims", ",".join(map(str, dims)),
                "--orders", ",".join(map(str, orders)), "--seed", str(seed), "--out", tmp]
        assert _run_main(argv)[0] in (0, 1, 2, 3)


_POLICY_FIELDS = [f.name for f in dataclasses.fields(mc.NumericPolicy)]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1e-3", "0", "NaN"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=3,
)


@settings(max_examples=100, deadline=None)
@given(doc=st.dictionaries(st.sampled_from(_POLICY_FIELDS + ["unknown"]), _JSON_VALUES))
@example(doc={"atol": True})
@example(doc={"rtol": "1e-3"})
def test_fuzzed_policy_file_is_taken_only_when_every_field_is_a_number(doc):
    fields = {k: v for k, v in doc.items() if k in _POLICY_FIELDS}
    try:
        # a JSON number is an int or a float; bool is a subclass of int
        if not all(type(v) in (int, float) for v in fields.values()):
            raise TypeError
        mc.NumericPolicy(**{k: float(v) for k, v in fields.items()})
        expected = 0
    except (TypeError, ValueError, OverflowError):
        expected = 1
    with tempfile.TemporaryDirectory() as tmp:
        matrix, policy = os.path.join(tmp, "a.json"), os.path.join(tmp, "policy.json")
        mc.save_matrix(matrix, mc.eye(2))
        with open(policy, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with mock.patch.dict(os.environ, {"OPCHECK_POLICY": policy}):
            rc, out = _run_main(["drazin", matrix])
    assert rc == expected
    assert (out == "") == (rc == 1)
