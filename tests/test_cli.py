import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyqmom.cli import _hyperbolicity_failures, main
from hyqmom.closures import _spectral_from_recurrence

CONFIGS = Path(__file__).parents[1] / "demos" / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClose:
    def test_hyqmom_standard_normal(self, capsys):
        code, out, _ = run_cli(
            ["close", "--hyqmom", "--gamma", "1", "--moments", "1,0,1,0,3"], capsys
        )
        assert code == 0
        assert out.splitlines()[0].startswith("M_5 = ")
        assert float(out.splitlines()[0].split("=")[1]) == 0.0

    def test_qmom(self, capsys):
        code, out, _ = run_cli(
            ["close", "--qmom", "--moments", "1,0,1,0", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["closed_moment"] == pytest.approx(1.0)
        assert data["closure"] == "qmom"

    def test_not_realizable_exit_2(self, capsys):
        code, _, err = run_cli(
            ["close", "--hyqmom", "--moments", "1,0,1,0,1"], capsys
        )
        assert code == 2
        assert "pivot" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["close", "--new", "--moments", "1,0,1,0", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.strip() == "1.0,0.0,1.0,0.0,2.0"

    def test_bad_moments_exit_1(self, capsys):
        code, _, err = run_cli(["close", "--qmom", "--moments", "1,zzz"], capsys)
        assert code == 1

    def test_tol_override_tightens_gate(self, capsys):
        # realizable at the default pivot threshold, rejected at a loose one
        import hyqmom as hq

        m = hq.recurrence_to_moments(([0.0, 0.0], [1.0, 1.0, 1e-5]), 5)
        row = ",".join(repr(float(x)) for x in m)
        code, _, _ = run_cli(["close", "--hyqmom", "--moments", row], capsys)
        assert code == 0
        code, _, err = run_cli(
            ["close", "--hyqmom", "--moments", row, "--tol", "1e-3"], capsys
        )
        assert code == 2
        assert "pivot" in err

    @pytest.mark.parametrize("command", ["close", "spectrum"])
    def test_loosened_tol_rejected_exit_1(self, capsys, command):
        # the library re-gates at the default floor, so a looser override
        # must be refused as a usage error naming that floor
        args = [command, "--moments", "1,0,1,0,1.00000000000001", "--tol", "1e-20"]
        if command == "close":
            args.insert(1, "--hyqmom")
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "1e-12" in err and "floor" in err

    def test_gate_agrees_with_library_near_boundary(self, capsys):
        # last pivot 1.44e-12 x M_0, just above the floor: the gate and
        # close_hyqmom share one realizability predicate, so both accept
        import hyqmom as hq

        row = (
            "1.0,1.9563665831253951,4.395420216606735,10.759123445555744,"
            "27.82357296912319,73.6377332983277,198.11466826731376,"
            "535.15663728695,1453.6503989887415"
        )
        expected = hq.close_hyqmom([float(x) for x in row.split(",")])
        code, out, _ = run_cli(["close", "--hyqmom", "--moments", row], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"M_9 = {expected!r}"

    def test_missing_closure_flag_exit_1(self, capsys):
        code, _, _ = run_cli(["close", "--moments", "1,0,1"], capsys)
        assert code == 1


class TestSpectrum:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--moments", "1,0,1", "--check-interlacing"], capsys
        )
        assert code == 0
        assert "interlacing: OK" in out
        assert "1.7320508075688772" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--moments", "1,0,1,0,3", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert np.allclose(data["lambda"], [-np.sqrt(6), -1, 0, 1, np.sqrt(6)])
        assert set(data["factors"]) == {"Qn", "Rn1"}

    def test_gamma_below_minus_n_still_three_eigenvalues(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--moments", "1,0,1", "--gamma", "-0.5", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["lambda"]) == 3

    def test_near_degenerate_warns_but_succeeds(self, capsys):
        import hyqmom as hq

        m = hq.recurrence_to_moments(([0.0, 0.0], [1.0, 1.0, 1e-9]), 5)
        code, _, err = run_cli(
            ["spectrum", "--moments", ",".join(repr(float(x)) for x in m)], capsys
        )
        assert code == 0
        assert "near-degenerate" in err


@pytest.mark.parametrize(
    "args",
    [
        ["close", "--hyqmom", "--moments", "1,0.2,1.3,0.5,4.1"],
        ["spectrum", "--moments", "1,0.2,1.3,0.5,4.1"],
        ["close", "--new", "--moments", "1,0.2,1.3,0.5"],
        ["close", "--qmom", "--moments", "1,0.2,1.3,0.5"],
    ],
    ids=["close", "spectrum", "close-new", "close-qmom"],
)
def test_two_wheeler_sweeps_per_vector(args, capsys, count_calls):
    # one for the --tol gate, whose (a, b) close prints, and one inside the
    # library call, which gates at its own floor
    import hyqmom as hq

    sweeps = count_calls(hq.moments, "_wheeler_batch")
    closure_sweeps = count_calls(hq.closures, "_wheeler_batch")
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert sweeps[0] + closure_sweeps[0] == 2


class TestVerifyHyperbolicity:
    def test_passes_modest_order(self, capsys):
        code, out, _ = run_cli(
            ["verify-hyperbolicity", "--n", "2", "--samples", "200", "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert "0 failure(s)" in out

    def test_report_written(self, capsys, tmp_path):
        code, _, _ = run_cli(
            [
                "verify-hyperbolicity", "--n", "1", "--samples", "50", "--seed", "9",
                "--output-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "hyperbolicity_report.json").read_text())
        assert report["passed"] is True
        assert report["prng"] == "PCG64"

    def test_deterministic_report(self, capsys, tmp_path):
        args = ["verify-hyperbolicity", "--n", "2", "--samples", "30", "--seed", "3"]
        run_cli(args + ["--output-dir", str(tmp_path / "a")], capsys)
        run_cli(args + ["--output-dir", str(tmp_path / "b")], capsys)
        a = (tmp_path / "a" / "hyperbolicity_report.json").read_bytes()
        b = (tmp_path / "b" / "hyperbolicity_report.json").read_bytes()
        assert a == b

    @pytest.mark.parametrize("n", [5, 6])
    def test_small_gaps_are_counted_not_failed(self, n, capsys, tmp_path):
        # default ranges and seed 0 draw gaps below 1e-7 x spectral radius;
        # their eigenvalue enclosures are still disjoint
        code, _, _ = run_cli(
            ["verify-hyperbolicity", "--n", str(n), "--seed", "0", "--output-dir", str(tmp_path)],
            capsys,
        )
        report = json.loads((tmp_path / "hyperbolicity_report.json").read_text())
        assert code == 0
        assert report["failures"] == []
        assert report["near_degenerate"] > 0
        assert report["min_separation"] <= report["separation_tol"]

    def test_overlapping_enclosures_fail(self):
        # at gamma = -2n the R_{n+1} coupling vanishes and every Q_n root is
        # a double eigenvalue: each draw's adjacent enclosures overlap
        n = 3
        rng = np.random.default_rng(4)
        a = rng.uniform(-5.0, 5.0, (20, n))
        b = rng.uniform(0.1, 10.0, (20, n + 1))
        gamma = np.float64(-2 * n)
        lam, om, _, _ = _spectral_from_recurrence(a, b, gamma)
        failures = _hyperbolicity_failures(a, b, gamma, lam, om)
        assert [f["sample"] for f in failures] == list(range(20))
        assert all(
            any(r.startswith("enclosures overlap") for r in f["reasons"]) for f in failures
        )
        # the same draws at gamma = 1 are certified
        lam, om, _, _ = _spectral_from_recurrence(a, b, 1.0)
        assert _hyperbolicity_failures(a, b, 1.0, lam, om) == []


class TestVerifyStability:
    def test_batch_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify-stability", "--n", "2", "--samples", "10", "--seed", "7"], capsys
        )
        assert code == 0
        assert "0 failure(s)" in out

    def test_n1_trivial(self, capsys):
        code, out, _ = run_cli(["verify-stability", "--n", "1"], capsys)
        assert code == 0
        assert "trivial" in out

    def test_byte_identical_reports(self, capsys, tmp_path):
        args = ["verify-stability", "--n", "2", "--samples", "5", "--seed", "11"]
        run_cli(args + ["--output-dir", str(tmp_path / "a")], capsys)
        run_cli(args + ["--output-dir", str(tmp_path / "b")], capsys)
        a = (tmp_path / "a" / "stability_report.json").read_bytes()
        b = (tmp_path / "b" / "stability_report.json").read_bytes()
        assert a == b
        report = json.loads(a)
        assert report["passed"] and len(report["certificates"]) == 5


class TestSimulate:
    def test_bundled_riemann(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["simulate", str(CONFIGS / "riemann_n2.json"), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["realizability_failures"] == 0
        for entry in manifest["snapshots"]:
            assert (tmp_path / entry["file"]).exists()

    def test_bundled_relaxation(self, capsys, tmp_path):
        code, _, _ = run_cli(
            [
                "simulate", str(CONFIGS / "relaxation_homogeneous.json"),
                "--output-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "run_manifest.json").exists()

    def test_malformed_config_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "gamma": 1.0, "cfl": 2.0}))
        code, _, err = run_cli(["simulate", str(bad)], capsys)
        assert code == 1
        assert "flux_variant" in err or "cfl" in err

    def test_unparseable_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(["simulate", str(bad)], capsys)
        assert code == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, _ = run_cli(["simulate", "/nonexistent/nope.json"], capsys)
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "hyqmom", "close", "--qmom", "--moments", "1,0,1,0"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 0
        assert "M_4" in proc.stdout

    def test_import_does_not_load_scipy(self, package_env):
        # no code path in the package needs scipy; only the tests use it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, hyqmom; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_usage_error_exit_1(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "hyqmom", "close"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 1
        assert "usage: hyqmom" in proc.stderr
