import argparse
import collections
import enum
import json
import json.encoder
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyqmom import cli, closures, moments, orthopoly, solver, stability
from hyqmom.cli import _failure_records, build_parser, main
from hyqmom.closures import NEAR_DEGENERACY_RTOL, _spectral_batch, _spectral_verdicts

CONFIGS = Path(__file__).parents[1] / "demos" / "configs"

# n = 3, drawn with a_k in [-300, 300]: lambda_0 and lambda_1 come out 8e-13
# apart, in order but closer than their enclosure radius
OVERLAPPING = ("1.0,-283.04030032352114,80116.67357340563,-22676961.130200434,"
               "6418786181.099769,-1816845602944.8518,514262138256634.9")


def verdicts(m, gamma=1.0):
    """_spectral_verdicts on the Wheeler rows of the moment vector m."""
    a, b = moments.moments_to_recurrence(m)
    a, b = a[None, :], b[None, :]
    lam, om = _spectral_batch(a, b, gamma)
    return _spectral_verdicts(a, b, gamma, lam, om)


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

    @pytest.mark.parametrize("command", [["close", "--hyqmom"], ["spectrum"]])
    @pytest.mark.parametrize(
        "moments, position", [("1,0,,1,0,3", 2), (",1,0,1,0,3", 0), ("1,0,1,0,3,,", 5)]
    )
    def test_empty_moment_field_refused(self, command, moments, position, capsys):
        # "1,0,,1,0,3" read as M_0..M_4 = 1,0,1,0,3: every moment after the
        # empty field moved down one order
        code, out, err = run_cli(command + ["--moments", moments], capsys)
        assert code == 1
        assert f"M_{position} = '' is not a number" in err
        assert out == ""

    @pytest.mark.parametrize("command", [["close", "--hyqmom"], ["spectrum"]])
    def test_one_trailing_comma_taken(self, command, capsys):
        plain = run_cli(command + ["--moments", "1,0,1,0,3"], capsys)
        assert run_cli(command + ["--moments", "1,0,1,0,3,"], capsys) == plain
        assert plain[0] == 0

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["close", "spectrum"])
    def test_non_finite_tol_refused_exit_1(self, capsys, command, tol):
        args = [command, "--moments", "1,0,1,0,3", "--tol", tol]
        if command == "close":
            args.insert(1, "--hyqmom")
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert "--tol must be a finite number at or above the realizability floor" in err

    def test_gate_agrees_with_library_near_boundary(self, capsys):
        # last pivot 1.44e-12 x M_0, just above the floor: the gate and
        # close share one realizability predicate, so both accept
        import hyqmom as hq

        row = (
            "1.0,1.9563665831253951,4.395420216606735,10.759123445555744,"
            "27.82357296912319,73.6377332983277,198.11466826731376,"
            "535.15663728695,1453.6503989887415"
        )
        m = [float(x) for x in row.split(",")]
        expected = hq.close(m, hq.ClosureSpec("hyqmom", gamma=1.0))
        code, out, _ = run_cli(["close", "--hyqmom", "--moments", row], capsys)
        assert code == 0
        assert out.splitlines()[0] == f"M_9 = {expected!r}"

    def test_missing_closure_flag_exit_1(self, capsys):
        code, _, _ = run_cli(["close", "--moments", "1,0,1"], capsys)
        assert code == 1


class TestSpectrum:
    def test_table(self, capsys):
        code, out, _ = run_cli(["spectrum", "--moments", "1,0,1"], capsys)
        assert code == 0
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
        assert verdicts(m)[2][0] < NEAR_DEGENERACY_RTOL
        code, _, err = run_cli(
            ["spectrum", "--moments", ",".join(repr(float(x)) for x in m)], capsys
        )
        assert code == 0
        assert "near-degenerate" in err
        assert f"closer than {NEAR_DEGENERACY_RTOL!r} x spectral radius" in err

    def test_overlapping_enclosures_exit_3(self, capsys):
        # the roots are distinct and in order, so the interlacing rule alone
        # passes them; verify-hyperbolicity's overlap rule fails them, and so
        # does spectrum
        m = [float(x) for x in OVERLAPPING.split(",")]
        failed = verdicts(m)[0]
        assert {rule: bool(mask[0]) for rule, mask in failed.items()} == {
            "interlacing": False, "enclosures overlap": True, "nonpositive weight": False,
        }
        code, out, err = run_cli(["spectrum", "--moments", OVERLAPPING], capsys)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "enclosures overlap" in err
        with pytest.raises(RuntimeError, match="enclosures overlap"):
            closures.spectral_decomposition(m, closures.ClosureSpec())

    def test_tied_roots_exit_3_without_report(self, tmp_path, capsys):
        # n = 4, pivots down to 4.1e-12: the vector passes the gate, and its
        # first two computed roots come out 8.9e-16 apart in the wrong order
        m = ("1.0,-2.871983325263498,8.248310962049224,-23.689044753128073,68.03473005893987,"
             "-195.39486568917746,561.172411859489,-1611.679725598294,4628.73122056811")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["spectrum", "--moments", m, "--output-dir", str(out_dir)], capsys
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert float(re.search(r"smallest gap (\S+)\)", err).group(1)) <= 0
        assert "Traceback" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())


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
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert sweeps[0] == 2


class TestVerifyHyperbolicity:
    @pytest.mark.parametrize(
        "n, message",
        [("0", "n must be >= 1"), ("11", "exceeds the supported cap n=10")],
        ids=["0", "11"],
    )
    def test_n_out_of_range_refused(self, n, message, capsys, tmp_path):
        code, _, err = run_cli(
            ["verify-hyperbolicity", "--n", n, "--samples", "5",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "hyperbolicity_report.json").exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_refused(self, gamma, capsys, tmp_path):
        code, _, err = run_cli(
            ["verify-hyperbolicity", "--n", "2", "--gamma", gamma,
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "gamma must be finite" in err
        assert not (tmp_path / "hyperbolicity_report.json").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_refused(self, samples, capsys, tmp_path):
        code, _, err = run_cli(
            ["verify-hyperbolicity", "--n", "2", "--samples", samples,
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "--samples must be >= 1" in err
        assert not (tmp_path / "hyperbolicity_report.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-300"])
    def test_bad_tol_refused(self, tol, capsys, tmp_path):
        code, out, err = run_cli(
            ["verify-hyperbolicity", "--n", "2", "--samples", "5", "--tol", tol,
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "--tol must be a finite number >= 0" in err
        assert not (tmp_path / "hyperbolicity_report.json").exists()

    def test_zero_tol_counts_no_gap(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["verify-hyperbolicity", "--n", "2", "--samples", "5", "--tol", "0",
             "--output-dir", str(tmp_path)],
            capsys,
        )
        report = json.loads((tmp_path / "hyperbolicity_report.json").read_text())
        assert code == 0
        assert report["separation_tol"] == 0.0
        assert report["near_degenerate"] == 0

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

        def failures(gamma):
            with np.errstate(divide="ignore", invalid="ignore"):
                lam, om = _spectral_batch(a, b, gamma)
            failed, gap, _, _ = _spectral_verdicts(a, b, gamma, lam, om)
            return _failure_records(failed, gap, 0)

        records = failures(gamma)
        assert [f["sample"] for f in records] == list(range(20))
        assert all(
            any(r.startswith("enclosures overlap") for r in f["reasons"]) for f in records
        )
        # the same draws at gamma = 1 are certified
        assert failures(1.0) == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_library_agrees_with_the_verify_rule(self, n):
        # draws as verify-hyperbolicity --a-range -300 300 makes them; for
        # each vector that passes the gate, spectral_decomposition raises
        # exactly when the verify records of its own Wheeler rows fail it
        rng = np.random.default_rng(0)
        drawn = zip(rng.uniform(-300.0, 300.0, (2000, n)), rng.uniform(0.1, 10.0, (2000, n + 1)))
        rows, raised = [], []
        for rc in drawn:
            m = moments.recurrence_to_moments(rc, 2 * n + 1)
            try:
                rows.append(moments.moments_to_recurrence(m))
            except moments.NotRealizableError:
                continue
            try:
                closures.spectral_decomposition(m, closures.ClosureSpec())
                raised.append(False)
            except RuntimeError:
                raised.append(True)
        a, b = (np.asfortranarray(np.array(r)) for r in zip(*rows))
        lam, om = _spectral_batch(a, b, 1.0)
        failed, gap, _, _ = _spectral_verdicts(a, b, 1.0, lam, om)
        records = _failure_records(failed, gap, 0)
        assert [f["sample"] for f in records] == np.flatnonzero(raised).tolist()
        assert 0 < len(records) < len(rows)

    def test_drawn_rows_are_certified_without_moments(self, monkeypatch, capsys):
        # the spectra are those of the drawn (a, b): no moments are built
        # from them and no Wheeler sweep recovers them
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_wheeler_batch", "_moments_from_recurrence_batch"):
            for module in (moments, closures, solver, stability, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, _, _ = run_cli(["verify-hyperbolicity", "--n", "3", "--samples", "500"], capsys)
        assert code == 0
        assert calls == {}

    def test_wide_a_range_certified(self, capsys, tmp_path):
        # 60000 draws with a_0 up to 2.5e7 certify as drawn: at n = 1 and
        # gamma = 1 the gaps are sqrt(3 b_1), whatever a_0
        code, _, _ = run_cli(
            ["verify-hyperbolicity", "--n", "1", "--samples", "60000", "--seed", "1",
             "--a-range", "0", "2.5e7", "--output-dir", str(tmp_path)],
            capsys,
        )
        report = json.loads((tmp_path / "hyperbolicity_report.json").read_text())
        assert code == 0
        assert report["failures"] == []


class TestDrawBlocks:
    """verify-hyperbolicity runs its draws in solver._blocks; the blocks
    change no report, stdout or refusal."""

    def run_in_blocks(self, argv, draws, monkeypatch, capsys, tmp_path):
        """Exit code, stdout, stderr and report bytes of argv run in blocks
        of about ``draws`` draws each (None: the solver's own blocks)."""
        if draws is not None:
            n = int(argv[argv.index("--n") + 1])
            monkeypatch.setattr(solver, "BLOCK_VALUES", draws * (2 * n + 1))
        out_dir = tmp_path / f"blocks-of-{draws}"
        code, out, err = run_cli(argv + ["--output-dir", str(out_dir)], capsys)
        report = out_dir / "hyperbolicity_report.json"
        return code, out, err, report.read_bytes() if report.exists() else None

    @pytest.mark.parametrize("draws", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_block_length_does_not_change_the_report(self, n, draws, monkeypatch, capsys, tmp_path):
        # 3 draws per block cut 1000 draws into blocks of 2 and 3
        argv = ["verify-hyperbolicity", "--n", str(n), "--seed", "4"]
        whole = self.run_in_blocks(argv, 1000, monkeypatch, capsys, tmp_path)
        assert whole[0] == 0 and whole[3] is not None
        assert self.run_in_blocks(argv, draws, monkeypatch, capsys, tmp_path) == whole

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_far_draws_all_go_to_lapack(self, n, monkeypatch, capsys, tmp_path):
        # the default draws lie far from the standard normal's factors, so
        # the filter admits none of them: one dense solve per factor of
        # order >= 5 (R_{n+1}, and Q_n from n = 5 on) per block, on every
        # draw, whatever the number of parts eigvalsh is called on
        solves, matrices = [], []
        dense, eigvalsh = orthopoly._dense_eigenvalues, np.linalg.eigvalsh

        def dense_spy(diag, offdiag):
            if diag.shape[1] >= 5:
                solves.append(diag.shape[0])
            return dense(diag, offdiag)

        def spy(A):
            if A.shape[-1] >= 5:
                matrices.append(A.shape[0])
            return eigvalsh(A)

        monkeypatch.setattr(orthopoly, "_dense_eigenvalues", dense_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        samples = 7000
        blocks = solver._blocks(samples, 2 * n + 1)
        assert len(blocks) > 1
        run_cli(["verify-hyperbolicity", "--n", str(n), "--samples", str(samples),
                 "--output-dir", str(tmp_path)], capsys)
        factors = 1 if n == 4 else 2
        assert len(solves) == factors * len(blocks)
        assert sum(solves) == sum(matrices) == factors * samples

    def test_failures_carry_global_ascending_indices(self, monkeypatch, capsys, tmp_path):
        # gamma just above -2n: two of the 20000 default draws fail
        argv = ["verify-hyperbolicity", "--n", "2", "--gamma=-3.9999999999", "--samples", "20000"]
        whole = self.run_in_blocks(argv, 20000, monkeypatch, capsys, tmp_path)
        assert self.run_in_blocks(argv, 3, monkeypatch, capsys, tmp_path) == whole
        assert whole[0] == 3
        report = json.loads(whole[3])
        assert [f["sample"] for f in report["failures"]] == [15536, 17022]

    @pytest.mark.parametrize("draws", [None, 3, 60000], ids=["solver", "3", "one-block"])
    def test_refusal_names_the_draw_in_the_whole_sample(self, draws, monkeypatch, capsys, tmp_path):
        # at n = 1 and gamma = 1, ||T_R||_F^2 = 2 a_0^2 + 6 b_1 overflows for
        # a_0 above 9.4808e153; draw 33587 is the first such, past the first
        # block under the solver's own block rule
        argv = ["verify-hyperbolicity", "--n", "1", "--samples", "60000", "--seed", "3",
                "--a-range", "0", "9.481e153"]
        assert solver._blocks(60000, 3)[0].stop <= 33587
        code, out, err, report = self.run_in_blocks(argv, draws, monkeypatch, capsys, tmp_path)
        assert code == 1 and out == "" and report is None
        assert "error: sample 33587 has a non-finite eigenvalue, enclosure radius or" in err

    def test_peak_memory_is_the_draws_and_one_block(self, capsys):
        # n = 4, 1e5 draws: the draws (a, b) take 7.2 MB; one pass over
        # all of them held about 9x that in temporaries (66 MB traced), a
        # block at a time holds about 12 blocks of 8 BLOCK_VALUES bytes
        n, samples = 4, 100_000
        argv = ["verify-hyperbolicity", "--n", str(n), "--samples", str(samples)]
        assert len(solver._blocks(samples, 2 * n + 1)) > 1
        run_cli(argv, capsys)  # warm numpy's caches
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        draws = 8 * samples * (2 * n + 1)
        block = 8 * solver.BLOCK_VALUES
        assert peak <= draws + 16 * block


class TestUnresolvedRanges:
    @pytest.mark.parametrize("high, code", [("1e60", 3), ("1e200", 1)])
    def test_no_warning_and_no_nan(self, high, code, capsys, tmp_path):
        # n = 3 with a_k up to 1e60: the eigenvalues are finite (LAPACK
        # takes the lanes that overflow the closed forms), but the
        # interlacing gaps, which shrink like powers of sqrt(b) / a, and the
        # weights, about a^-6, fall below double precision, so every draw
        # fails certification.  Up to
        # 1e200, ||T||_F^2 overflows and the command refuses.  No
        # RuntimeWarning escapes (pytest turns them into errors) and no NaN
        # reaches a report.
        argv = ["verify-hyperbolicity", "--n", "3", "--samples", "5", "--a-range", "0", high,
                "--output-dir", str(tmp_path)]
        assert run_cli(argv, capsys)[0] == code
        _, out, err = run_cli(argv[:-2] + ["--format", "json"], capsys)
        if code == 1:
            assert "sample 0 has a non-finite eigenvalue, enclosure radius or separation" in err
            assert f"--a-range 0.0 {float(high)!r} --b-range 0.1 10.0" in err
            assert out == "" and not any(tmp_path.iterdir())
        else:
            report = json.loads(out, parse_constant=pytest.fail)
            assert len(report["failures"]) == 5 and report["min_separation"] == 0.0
            assert (tmp_path / "hyperbolicity_report.json").read_text() == out

    @pytest.mark.parametrize(
        "ranges",
        [["--n", "4", "--b-range", "1e300", "1.7e308"], ["--n", "6", "--a-range", "-1e300", "1e300"]],
    )
    def test_refusal_with_split_solves(self, ranges, monkeypatch, capsys, tmp_path):
        # 3000 draws are one block, whose eigvalsh calls are split into 4
        # parts; np.errstate holds per thread, yet the refusal is the same
        # one line, with no RuntimeWarning from a helper
        monkeypatch.setattr(orthopoly, "_cpu_count", lambda: 4)
        parts = collections.Counter()
        eigvalsh = np.linalg.eigvalsh

        def spy(A):
            parts[A.shape[-1]] += 1
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        argv = ["verify-hyperbolicity", "--samples", "3000", *ranges, "--output-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert parts[int(ranges[1]) + 1] == 4
        assert code == 1 and out == "" and not any(tmp_path.iterdir())
        assert err.count("\n") == 1
        assert err.startswith("error: sample 0 has a non-finite eigenvalue, enclosure radius or")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", str(CONFIGS / "riemann_n2.json"), "--tol", "5"],
        ["simulate", str(CONFIGS / "riemann_n2.json"), "--format", "json"],
        ["simulate", str(CONFIGS / "riemann_n2.json"), "--seed", "1"],
        ["verify-stability", "--n", "2", "--tol", "1e-6"],
        ["verify-stability", "--n", "2", "--format", "csv"],
        ["verify-hyperbolicity", "--n", "2", "--format", "csv"],
        ["close", "--qmom", "--moments", "1,0,1,0", "--seed", "1"],
        ["spectrum", "--moments", "1,0,1,0,3", "--seed", "1"],
    ],
    ids=["simulate-tol", "simulate-format", "simulate-seed", "stability-tol",
         "stability-csv", "hyperbolicity-csv", "close-seed", "spectrum-seed"],
)
def test_options_a_command_does_not_read_are_refused(argv, capsys, tmp_path):
    # each subcommand takes only the common options it reads
    code, _, err = run_cli(argv + ["--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "unrecognized arguments" in err or "invalid choice" in err
    assert not any(tmp_path.iterdir())


class TestSamplingRanges:
    @pytest.mark.parametrize(
        "command, flag, low, high, message",
        [
            ("verify-hyperbolicity", "--a-range", "0", "nan", "must be finite with low <= high"),
            ("verify-hyperbolicity", "--a-range", "1", "-1", "must be finite with low <= high"),
            ("verify-hyperbolicity", "--b-range", "-1", "1", "must have a positive low end"),
            ("verify-hyperbolicity", "--b-range", "0", "0", "must have a positive low end"),
            ("verify-stability", "--u-range", "0", "inf", "must be finite with low <= high"),
            ("verify-stability", "--rho-range", "0", "1", "must have a positive low end"),
            ("verify-stability", "--theta-range", "nan", "1", "must be finite with low <= high"),
            ("verify-stability", "--theta-range", "2", "1", "must be finite with low <= high"),
            ("verify-stability", "--u-range", "-1e308", "1e308",
             "is wider than the largest double"),
            ("verify-hyperbolicity", "--a-range", "-1e308", "1e308",
             "is wider than the largest double"),
        ],
    )
    def test_bad_range_refused(self, command, flag, low, high, message, capsys, tmp_path):
        # refused before any draw: numpy's sampler raises OverflowError on
        # a non-finite range, and b <= 0 draws unrealizable moments
        code, _, err = run_cli(
            [command, "--n", "2", "--samples", "5", flag, low, high,
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert f"{flag} {message}" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, samples, cap",
        [
            ("verify-hyperbolicity", 10**20, solver.MAX_CELLS),
            ("verify-hyperbolicity", solver.MAX_CELLS + 1, solver.MAX_CELLS),
            ("verify-stability", 10**20, cli.MAX_CERTIFICATES),
            ("verify-stability", solver.MAX_CELLS + 1, cli.MAX_CERTIFICATES),
            ("verify-stability", cli.MAX_CERTIFICATES + 1, cli.MAX_CERTIFICATES),
        ],
        ids=[
            "verify-hyperbolicity-100000000000000000000",
            "verify-hyperbolicity-10000001",
            "verify-stability-100000000000000000000",
            "verify-stability-10000001",
            "verify-stability-1000001",
        ],
    )
    def test_too_many_samples_refused(self, command, samples, cap, capsys, tmp_path,
                                      monkeypatch):
        # refused before anything is drawn or certified, naming the flag,
        # where numpy's refusal of the draws' shape names none
        def no_draws(*args):
            raise AssertionError("samples drawn past the cap")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(cli, "certify", no_draws)
        code, _, err = run_cli(
            [command, "--n", "2", "--samples", str(samples), "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert f"--samples must be <= {cap}, got {samples}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, flag, low, plain",
        [
            ("verify-stability", "--u-range", "-1e1", "-10"),
            ("verify-hyperbolicity", "--a-range", "-25E-1", "-2.5"),
            ("verify-hyperbolicity", "--a-range", "-.5e+0", "-0.5"),
        ],
    )
    def test_negative_low_end_in_exponent_form(self, command, flag, low, plain, capsys):
        # argparse alone reads -1e1 as an option and refuses the range
        reports = []
        for value in (low, plain):
            code, out, err = run_cli(
                [command, "--n", "2", "--samples", "5", flag, value, "5", "--format", "json"],
                capsys,
            )
            assert code == 0, err
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])[flag[2:].replace("-", "_")][0] == float(plain)

    @pytest.mark.parametrize(
        "extra",
        [["--bogus"], ["-x", "1"], ["--u-range", "-e1", "5"], ["--u-range", "-infx", "5"]],
    )
    def test_unknown_option_still_refused(self, extra, capsys):
        code, _, err = run_cli(
            ["verify-stability", "--n", "2", "--u-range", "-1e1", "5", *extra], capsys
        )
        assert code == 1
        assert "usage: hyqmom" in err and "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify-hyperbolicity", "--tol", "-inf"], "--tol must be a finite number >= 0"),
            (["verify-hyperbolicity", "--tol", "-NaN"], "--tol must be a finite number >= 0"),
            (["close", "--hyqmom", "--tol", "-Infinity"], "--tol must be a finite number at"),
            (["spectrum", "--tol", "-inf"], "--tol must be a finite number at"),
            (["verify-hyperbolicity", "--gamma", "-iNfInItY"], "gamma must be finite"),
            (["close", "--hyqmom", "--gamma", "-inf"], "gamma must be finite"),
            (["spectrum", "--gamma", "-NAN"], "gamma must be finite"),
            (["verify-hyperbolicity", "--a-range", "-inf", "5"], "--a-range must be finite"),
            (["verify-hyperbolicity", "--b-range", "-nan", "5"], "--b-range must be finite"),
            (["verify-stability", "--rho-range", "-INF", "5"], "--rho-range must be finite"),
            (["verify-stability", "--u-range", "-Infinity", "5"], "--u-range must be finite"),
            (["verify-stability", "--theta-range", "-nan", "5"], "--theta-range must be finite"),
        ],
    )
    def test_negative_infinity_and_nan_reach_the_option_check(self, argv, message, capsys):
        # float() reads -inf, -infinity and -nan in any case; argparse alone
        # reads them as options and says the flag lacks its argument
        if argv[0] in ("close", "spectrum"):
            argv = argv + ["--moments", "1,0,1,0,3"]
        else:
            argv = argv + ["--n", "2", "--samples", "5"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert message in err
        assert "expected" not in err and "usage:" not in err

    @pytest.mark.parametrize(
        "ranges",
        [
            [],
            ["--u-range", "-1.5", "1.5", "--theta-range", "0.5", "10"],
            ["--rho-range", "2", "2", "--u-range", "0", "0", "--theta-range", "3", "3"],
            ["--rho-range", "1e-300", "1e300", "--u-range", "-1e-300", "1e-300",
             "--theta-range", "5e-324", "1e-320"],
            ["--rho-range", "1e300", "1.7e308", "--u-range", "-8e307", "8e307",
             "--theta-range", "0.1", "0.1000000000000001"],
        ],
    )
    def test_states_are_the_per_state_scalar_draws(self, ranges, capsys):
        # the states are drawn in one call; they must be the scalar draws
        # rho, U, theta of one state after another, bit for bit
        code, out, err = run_cli(
            ["verify-stability", "--n", "2", "--samples", "9", "--seed", "13",
             "--format", "json", *ranges],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        rng = np.random.default_rng(13)
        keys = ("rho", "U", "theta")
        expected = [
            [float(rng.uniform(*report[f"{key.lower()}_range"])).hex() for key in keys]
            for _ in range(9)
        ]
        states = [cert["state"] for cert in report["certificates"]]
        assert [[state[key].hex() for key in keys] for state in states] == expected


class TestVerifyStability:
    def test_batch_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify-stability", "--n", "2", "--samples", "10", "--seed", "7"], capsys
        )
        assert code == 0
        assert "0 failure(s)" in out

    @pytest.mark.parametrize("n", ["1", "2", "11"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_refused(self, n, samples, capsys, tmp_path):
        # certifying nothing must not pass, nor certifying an order above the
        # cap, which is refused before the sample count is read
        code, _, err = run_cli(
            ["verify-stability", "--n", n, "--samples", samples,
             "--output-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        expected = "exceeds the supported cap n=10" if n == "11" else "--samples must be >= 1"
        assert expected in err
        assert not (tmp_path / "stability_report.json").exists()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_default_ranges_pass(self, n, capsys):
        # the certificate is built at the standard state in exact arithmetic,
        # so the lab-frame roundoff at large |U| / sqrt(theta) cannot fail it,
        # and every condition residual is exactly 0
        for seed in range(5):
            code, out, _ = run_cli(
                ["verify-stability", "--n", str(n), "--seed", str(seed), "--format", "json"],
                capsys,
            )
            report = json.loads(out)
            assert code == 0 and report["passed"], seed
            assert len(report["certificates"]) == 100
            for cert in report["certificates"]:
                residuals = dict(cert["residuals"])
                assert residuals.pop("spd_min_pivot") > 0
                assert set(residuals.values()) == {0.0}

    def test_n1_trivial(self, capsys):
        code, out, _ = run_cli(["verify-stability", "--n", "1"], capsys)
        assert code == 0
        assert "trivial" in out

    def test_one_certificate_per_call(self, capsys, count_calls):
        # the certificate depends on n alone: one certify call, not one per draw
        calls = count_calls(cli, "certify")
        code, _, _ = run_cli(["verify-stability", "--n", "3", "--samples", "125"], capsys)
        assert code == 0 and calls[0] == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_entries_are_the_library_certificates(self, n, capsys):
        code, out, _ = run_cli(
            ["verify-stability", "--n", str(n), "--samples", "20", "--seed", str(n),
             "--format", "json"],
            capsys,
        )
        entries = json.loads(out)["certificates"]
        assert code == 0 and len(entries) == 20
        for entry in entries:
            state = stability.EquilibriumState(**entry["state"])
            assert entry == stability.certify(state, n).as_dict()

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

    @pytest.mark.parametrize("field", ["t_final", "gamma"])
    def test_infinite_field_exit_1(self, field, capsys, tmp_path, monkeypatch):
        # json reads Infinity, and an infinite t_final never returns: the
        # config is refused before the run builds its grid, and a run that
        # got that far fails here instead of stepping
        def started(cfg):
            raise AssertionError("the run started")

        monkeypatch.setattr(solver, "build_initial_grid", started)
        cfg = dict(json.loads((CONFIGS / "riemann_n2.json").read_text()), **{field: float("inf")})
        bad = tmp_path / "infinite.json"
        bad.write_text(json.dumps(cfg))
        assert f'"{field}": Infinity' in bad.read_text()
        code, _, err = run_cli(["simulate", str(bad), "--output-dir", str(tmp_path / "out")],
                               capsys)
        assert code == 1
        assert err.startswith("config error") and field in err

    def test_integer_beyond_double_exit_1(self, capsys, tmp_path):
        # float() raises OverflowError on a JSON integer beyond the largest
        # double; the config error names the field instead of a traceback
        cfg = json.loads((CONFIGS / "riemann_n2.json").read_text())
        cfg["initial"][0]["rho"] = 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(cfg))
        code, _, err = run_cli(["simulate", str(bad), "--output-dir", str(tmp_path / "out")],
                               capsys)
        assert code == 1
        assert err.startswith("config error") and "initial[0].rho" in err

    @pytest.mark.parametrize("theta, why", [
        ("1e200", "M_4 = inf exceeds double precision"),
        ("1e-200", "the moment row fails the realizability gate"),
    ])
    def test_unrepresentable_initial_moments_exit_1(self, theta, why, capsys, tmp_path):
        # n = 2: M_4 = 3 rho theta^2 overflows at theta = 1e200, and at
        # 1e-200 it and the pivot b_0 b_1 b_2 underflow to 0; the config is
        # refused before any grid is built, not reported as realizability
        # loss at t = 0
        cfg = json.loads((CONFIGS / "riemann_n2.json").read_text())
        cfg["initial"][1]["theta"] = float(theta)
        bad = tmp_path / "unrepresentable.json"
        bad.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["simulate", str(bad), "--output-dir", str(tmp_path / "out")], capsys
            )
        assert code == 1
        assert out == "" and err.count("\n") == 1
        assert err.startswith("config error: config field 'initial[1]'") and why in err
        assert not (tmp_path / "out").exists()

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
        # no code path in the package needs scipy; only the tests use it.
        # The certificate's exact arithmetic is in Python integers, so
        # fractions and decimal stay out of the cold start as well
        modules = ("scipy", "fractions", "decimal")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, hyqmom; print([m for m in {modules} if m in sys.modules])"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_starts_no_thread(self, package_env):
        # the eigvalsh helper threads start, and queue is imported, at the
        # first split solve; concurrent.futures is never imported
        modules = ("queue", "concurrent.futures")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, threading, hyqmom; "
             f"print(threading.active_count(), [m for m in {modules} if m in sys.modules])"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1 []"

    def test_usage_error_exit_1(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "hyqmom", "close"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert proc.returncode == 1
        assert "usage: hyqmom" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-hyperbolicity", "--n", "2", "--samples", "20", "--seed", "3"],
        ["verify-stability", "--n", "2", "--samples", "2"],
        ["close", "--hyqmom", "--moments", "1,0,1"],
    ],
)
def test_manifest_arguments_are_the_parser_options(argv, capsys, tmp_path):
    argv = argv + ["--output-dir", str(tmp_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    options = {k: v for k, v in parsed.items() if k not in ("func", "command")}
    assert manifest["arguments"] == json.loads(json.dumps(options))


class TestReportEncoding:
    """Every JSON file the package writes is json.dumps(obj, sort_keys=True)
    on one line, written by json's C encoder."""

    @staticmethod
    def args(tmp_path):
        return argparse.Namespace(command="close", format="text", output_dir=str(tmp_path),
                                  _started=time.time())

    @classmethod
    def write(cls, obj, tmp_path):
        """What _report puts in the report file for ``obj``; raises what
        json raises for a value it refuses."""
        cli._report(cls.args(tmp_path), "report.json", obj, [])
        return (tmp_path / "report.json").read_text()

    @pytest.mark.parametrize(
        "obj",
        [
            {2: "b", 1: [1]},
            {"a": {3: None, 2.5: 1}},
            {"a": {True: 1, False: [2]}},
            [[np.float64(0.1)], [0.1], [np.float64(0.1)]],
            {np.str_("k"): [np.str_("é")], "j": [np.str_("é")]},
            [[enum.IntEnum("E", "A")(1)], [1]],
            collections.OrderedDict([("b", 1), ("a", [2])]),
        ],
    )
    def test_keys_and_subclasses_that_json_takes(self, obj, tmp_path):
        assert self.write(obj, tmp_path) == json.dumps(obj, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            [np.float32(1.0)],
            {"a": np.int64(1)},
            {"a": {1, 2}},
            [b"bytes"],
            {"a": [np.bool_(True)]},
            {(1, 2): "tuple key"},
            {1: "a", "b": 2},
            [1j],
            [[np.float64(1.0)], [np.array([1.0])]],
            [[np.str_("a")], [b"a\x00\x00\x00"]],
        ],
    )
    def test_refused_values_raise_type_error(self, obj, tmp_path):
        # refused before anything is written: no report and no manifest
        with pytest.raises(TypeError) as mine:
            self.write(obj, tmp_path)
        with pytest.raises(TypeError) as theirs:
            json.dumps(obj, sort_keys=True)
        assert str(mine.value) == str(theirs.value)
        assert not any(tmp_path.iterdir())

    def test_extreme_magnitudes_round_trip(self, tmp_path):
        m = [1e-200, 1.0 + 2**-52, -3.7e150, 0.1, 5e-324, -0.0]
        back = json.loads(self.write(m, tmp_path))
        assert back == m
        assert [np.signbit(x) for x in back] == [np.signbit(x) for x in m]

    def test_non_finite_floats_keep_json_spelling(self, tmp_path):
        text = self.write([float("nan"), float("inf"), -float("inf")], tmp_path)
        assert text == "[NaN, Infinity, -Infinity]\n"

    def test_cycle_raises_as_json_does(self, tmp_path):
        cycle = []
        cycle.append(cycle)
        with pytest.raises(ValueError, match="Circular reference"):
            self.write({"a": cycle}, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_report_write_holds_the_text_once(self, monkeypatch, tmp_path):
        # with the report's text already encoded, writing it allocates one
        # encoded copy of the text at most, not a joined copy besides
        payload = {"certificates": list(range(10**5))}
        text = json.dumps(payload, sort_keys=True)
        dumps = json.dumps
        monkeypatch.setattr(cli.json, "dumps",
                            lambda obj, **kw: text if obj is payload else dumps(obj, **kw))
        tracemalloc.start()
        try:
            cli._report(self.args(tmp_path), "report.json", payload, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "report.json").read_text() == text + "\n"
        assert peak <= len(text) + 64 * 1024

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["close", "--hyqmom", "--moments", "1,0,1,0,3", "--format", "json"],
             ["close.json", "manifest.json"]),
            (["spectrum", "--moments", "1,0,1,0,3", "--format", "json"],
             ["spectrum.json", "manifest.json"]),
            (["verify-hyperbolicity", "--n", "2", "--samples", "300", "--format", "json"],
             ["hyperbolicity_report.json", "manifest.json"]),
            (["verify-stability", "--n", "3", "--samples", "6", "--format", "json"],
             ["stability_report.json", "manifest.json"]),
            (["verify-stability", "--n", "1", "--format", "json"],
             ["stability_report.json", "manifest.json"]),
            (["simulate", str(CONFIGS / "relaxation_homogeneous.json")], ["run_manifest.json"]),
        ],
        ids=["close", "spectrum", "hyperbolicity", "stability", "stability-n1", "simulate"],
    )
    def test_every_writer_skips_the_python_encoder(self, argv, names, capsys, count_calls,
                                                   tmp_path):
        # json builds its pure-Python encoder with _make_iterencode whenever
        # indent is set; the last call shows that the counter is live
        calls = count_calls(json.encoder, "_make_iterencode")
        code, out, _ = run_cli(argv + ["--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert calls[0] == 0
        texts = [(tmp_path / name).read_text() for name in names]
        for text in texts:
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        if "--format" in argv:
            assert out == texts[0]
        json.dumps([0], indent=2)
        assert calls[0] == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["close", "--hyqmom", "--moments", "1,0,1,0,3"], "close.json"),
            (["spectrum", "--moments", "1,0,1,0,3"], "spectrum.json"),
            (["verify-hyperbolicity", "--n", "2", "--samples", "30"], "hyperbolicity_report.json"),
            (["verify-stability", "--n", "3", "--samples", "4"], "stability_report.json"),
            (["verify-stability", "--n", "1"], "stability_report.json"),
        ],
    )
    def test_each_report_is_encoded_once(self, argv, name, fmt, capsys, count_calls, tmp_path):
        # stdout and the report file share one encoding; the manifest is
        # the other one
        calls = count_calls(cli.json, "dumps")
        code, out, _ = run_cli(argv + ["--format", fmt, "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert calls[0] == 2
        if fmt == "json":
            assert out == (tmp_path / name).read_text()
        calls[0] = 0
        run_cli(argv + ["--format", fmt], capsys)
        assert calls[0] == (fmt == "json")


class TestSharedParser:
    """main parses with one parser per process; a call must see nothing of
    the calls before it."""

    @staticmethod
    def sequence(out):
        return [
            ["verify-stability", "--n", "3", "--samples", "4", "--seed", "9",
             "--format", "json", "--output-dir", str(out)],
            ["verify-stability", "--n", "3", "--samples", "4"],
            ["verify-hyperbolicity", "--n", "2", "--samples", "30", "--bogus"],
            ["verify-hyperbolicity", "--n", "2", "--samples", "30", "--output-dir", str(out)],
            ["verify-hyperbolicity", "--n", "2", "--samples", "30", "--format", "json"],
            ["close", "--hyqmom", "--gamma", "0.5", "--moments", "1,0,1,0,3", "--format", "json",
             "--output-dir", str(out)],
            ["close", "--qmom", "--moments", "1,0,1,0"],
            ["close", "--moments", "1,0,1,0,3"],
            ["spectrum", "--moments", "1,0,1,0,3", "--format", "csv"],
            ["verify-stability", "--n", "2", "--samples", "3", "--u-range", "-inf", "1"],
            ["verify-stability", "--n", "2", "--samples", "3", "--format", "json"],
        ]

    @classmethod
    def run_sequence(cls, out, capsys):
        results = []
        for argv in cls.sequence(out):
            code = main(argv)
            captured = capsys.readouterr()
            files = {}
            if out.exists():
                for path in sorted(out.iterdir()):
                    text = path.read_text()
                    files[path.name] = re.sub(r'"wall_clock_s": [^,}]+', "", text)
                shutil.rmtree(out)
            results.append((code, captured.out, captured.err, files))
        return results

    def test_repeated_calls_match_fresh_parsers(self, capsys, monkeypatch, tmp_path, count_calls):
        cli._parser.cache_clear()
        builds = count_calls(cli, "build_parser")
        shared = self.run_sequence(tmp_path / "out", capsys)
        assert builds[0] == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.run_sequence(tmp_path / "out", capsys)
        assert builds[0] == 1 + len(fresh)
        assert [r[0] for r in shared] == [0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0]
        assert shared == fresh

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()
