"""Command-line round trips, determinism and exit codes."""

import csv
import hashlib
import io
import json
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from contest_opt import QuadratureConfig, parse_objective_config, parse_policy
from contest_opt import bernstein, equilibrium, objective, optimizer, quadrature
from contest_opt import cli, verify
from contest_opt.cli import main
from contest_opt.policy import classify_structure

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_winner_take_all_with_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--n", "5", "--alpha", "0",
                               "--beta", "2", "--policy", "hm")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(fields["value"]) == pytest.approx(1 / 3, abs=1e-4)
        assert float(fields["closed_form"]) == pytest.approx(1 / 3, abs=1e-9)
        # emitted policy strings re-parse through the package's own reader
        assert parse_policy(fields["policy"]).n == 5

    def test_explicit_vector(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--policy", "0.4,0.2,0.2,0.2,0",
                               "--beta", "2")
        assert code == 0 and "value:" in out

    def test_n_must_match_the_share_list(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--policy", "0.6,0.4,0", "--n", "5")
        assert code == 1 and out == ""
        assert "--n 5 does not match the 3 shares of --policy" in err
        code, out, _ = run_cli(capsys, "evaluate", "--policy", "0.6,0.4,0", "--n", "3")
        assert code == 0 and "policy: 0.6,0.4,0\n" in out
        # a named form without --n keeps n = 5
        code, out, _ = run_cli(capsys, "evaluate", "--policy", "uni")
        assert code == 0 and "policy: 0.25,0.25,0.25,0.25,0\n" in out

    def test_order_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--policy", "0.2,0.3,0.5")
        assert code == 1
        assert "non-increasing" in err

    @pytest.mark.parametrize("command", ["evaluate", "equilibrium"])
    def test_h_above_its_cap_is_refused(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", str(bernstein._NESTED_MAX_N + 1),
                                 "--policy", "uni")
        assert code == 3 and out == ""
        assert "exceeds the cap of n = %d" % bernstein._NESTED_MAX_N in err

    def test_an_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "o.txt"
        code, out, err = run_cli(capsys, "evaluate", "--policy", "hm", "--output", str(target))
        assert code == 1 and out == ""
        assert err == "error: cannot write %s: No such file or directory\n" % target

    def test_json_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--policy", "uni", "--n", "5",
                               "--beta", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert parse_objective_config(record["objective"]).alpha == 0.0


class TestOptimize:
    def test_bnb_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "bnb", "--n", "5",
                               "--alpha", "0", "--beta", "2", "--epsilon", "1e-3")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert fields["structure"] == "UNI"
        assert fields["certified"] == "True"

    def test_bnb_two_players_notice(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--method", "bnb", "--n", "2",
                                 "--alpha", "0.5", "--beta", "2")
        assert code == 0
        assert "winner-take-all" in err
        assert dict(line.split(": ", 1) for line in out.strip().splitlines())["structure"] == "HM"

    def test_bnb_takes_other_objectives(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "bnb",
                               "--objective", "objective=orderstat")
        assert code == 0
        assert dict(line.split(": ", 1) for line in out.strip().splitlines())["certified"] == "True"

    def test_constants_flag_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--method", "bnb", "--constants", "rough")
        assert code == 1 and "--constants" in err

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--policy", "hm"),
        ("optimize", "--method", "line"),
        ("sweep", "--cells", "2"),
    ])
    def test_quad_rule_flag_is_gone(self, capsys, argv):
        """The trapezoid rule is the only rule, so no command takes a rule."""
        code, out, err = run_cli(capsys, *argv, "--quad-rule", "trapezoid")
        assert code == 1 and "--quad-rule" in err and out == ""

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--beta", "3"),
        ("sweep", "--format", "json"),
        ("equilibrium", "--quad-m", "4000"),
        ("equilibrium", "--quad-rule", "trapezoid"),
        ("equilibrium", "--format", "json"),
    ])
    def test_unread_flags_are_not_accepted(self, capsys, command, flag, value):
        extra = ("--policy", "hm") if command == "equilibrium" else ("--cells", "2")
        code, out, err = run_cli(capsys, command, *extra, flag, value)
        assert code == 1 and flag in err and out == ""

    @pytest.mark.parametrize("argv, flag, where", [
        (("optimize", "--method", "grid", "--n", "4", "--granularity", "0.1",
          "--epsilon", "1e-9", "--steps", "7"), "--epsilon", "by --method grid"),
        (("optimize", "--method", "grid", "--steps", "7"), "--steps", "by --method grid"),
        (("optimize", "--method", "bnb", "--granularity", "0.1"), "--granularity",
         "by --method bnb"),
        (("optimize", "--method", "bnb", "--steps", "7"), "--steps", "by --method bnb"),
        (("optimize", "--method", "line", "--alpha", "0.9", "--objective",
          "objective=orderstat", "--epsilon", "5", "--granularity", "0.3"), "--epsilon",
         "by --method line"),
        (("optimize", "--method", "line", "--granularity", "0.3"), "--granularity",
         "by --method line"),
        (("optimize", "--method", "line", "--alpha", "0.9", "--objective",
          "objective=orderstat"), "--alpha", "with --objective"),
        (("evaluate", "--policy", "hm", "--alpha", "0.9", "--objective",
          "objective=orderstat"), "--alpha", "with --objective"),
        (("sweep", "--full", "--cells", "2"), "--cells", "with --full"),
        (("sweep", "--full", "--budget", "4"), "--budget", "with --full"),
        (("equilibrium", "--policy", "hm", "--seed", "3"), "--seed", "without --simulate"),
        (("equilibrium", "--policy", "hm", "--simulate", "0", "--deviation-grid", "10"),
         "--deviation-grid", "without --simulate"),
    ])
    def test_flags_the_path_does_not_read_are_refused(self, capsys, monkeypatch, argv, flag,
                                                      where):
        """Refused before any work: nothing below the command line runs."""
        def no_work(*args, **kwargs):
            raise AssertionError("a refused run did work")

        for module, name in ((optimizer, "branch_and_bound"), (optimizer, "grid_search"),
                             (optimizer, "two_level_line_search"),
                             (optimizer, "two_level_line_search_batch"),
                             (objective, "evaluate"), (equilibrium, "cdf_table")):
            monkeypatch.setattr(module, name, no_work)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: %s is not read %s\n" % (flag, where)

    def test_grid_flat_policy_value_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "grid", "--n", "6",
                               "--beta", "5", "--objective",
                               "objective=posynomial terms=-1:1",
                               "--granularity", "0.0333333333333333")
        assert code == 0
        assert dict(line.split(": ", 1) for line in out.strip().splitlines())["value"] == "0"

    def test_grid_lattice_guard(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--method", "grid", "--n", "8",
                                 "--granularity", "0.005")
        assert code == 3 and out == ""
        assert "more than 1677721 candidates of 8 shares" in err and "cap of 256 MB" in err

    def test_grid_json(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "grid",
                               "--granularity", "0.1", "--n", "4", "--alpha", "0",
                               "--beta", "0.5", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["policy"][0] == 1.0  # concave costs concentrate the prize

    def test_json_is_strict_and_carries_the_certificate(self, capsys):
        """The largest rate's value and gap, near the largest double, are
        finite numbers in strict JSON, and the record says the gap is
        certified.  A gap that is not finite would be null
        (`OptResult.to_json`)."""
        def refuse(constant):
            raise AssertionError("non-standard JSON constant %s" % constant)

        code, out, _ = run_cli(capsys, "optimize", "--method", "line", "--objective",
                               "objective=exp lambdas=709", "--steps", "20",
                               "--quad-m", "50", "--format", "json")
        assert code == 0
        record = json.loads(out, parse_constant=refuse)
        assert record["certified"] is True
        assert 0 < record["value"] < record["gap"] < sys.float_info.max

    def test_grid_basis_above_the_cap_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--method", "grid", "--n", "60",
                                 "--granularity", "0.5", "--quad-m", "200000")
        assert code == 3 and out == ""
        assert "exceeds the cap of %d" % optimizer.MAX_GRID_BASIS in err

    def test_readme_order_statistic_example(self, capsys):
        """The command and the block the README prints under it, read from
        README.md itself."""
        text = README.read_text()
        command = 'contest-opt optimize --method line --n 5 --objective "objective=orderstat" --beta 2'
        assert command in text
        block = text.split("The order-statistic example above prints:", 1)[1].split("```")[1]
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0
        assert out == textwrap.dedent(block).strip("\n") + "\n"

    def test_readme_branch_and_bound_example(self, capsys):
        """The branch-and-bound command and the block the README prints
        under it, read from README.md itself."""
        text = README.read_text()
        command = "contest-opt optimize --method bnb  --n 5 --alpha 0.24 --beta 2 --epsilon 1e-4"
        assert command in text
        block = text.split("The branch-and-bound example above prints:", 1)[1].split("```")[1]
        code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0
        assert out == textwrap.dedent(block).strip("\n") + "\n"

    @pytest.mark.parametrize("method", ["line", "bnb"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_classify_tol_is_usage_error(self, capsys, method, value):
        code, out, err = run_cli(capsys, "optimize", "--method", method, "--n", "5",
                                 "--classify-tol", value)
        assert code == 1 and out == ""
        assert err == "error: --classify-tol must be finite and >= 0, got %r\n" % float(value)

    @pytest.mark.parametrize("text, code", [
        ("objective=convex", 1),
        ("objective=posynomial", 1),
        ("objective=exp", 1),
        ("objective=convex alpha=abc", 1),
        ("objective=exp lambdas=1 truncation=x", 1),
        ("objective=orderstat alpha=0.3 lambdas=2", 1),
        ("objective=posynomial terms=1:nan", 1),
        ("objective=exp lambdas=nan", 1),
        ("objective=exp lambdas=inf", 1),
        ("objective=exp lambdas=800", 1),
        ("objective=exp lambdas=1 truncation=100000000", 3),
    ])
    def test_bad_objective_strings_are_refused(self, capsys, text, code):
        got, out, err = run_cli(capsys, "optimize", "--method", "line", "--n", "5",
                                "--objective", text)
        assert got == code and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, cap", [
        (("optimize", "--method", "line", "--steps"), optimizer.MAX_LINE_STEPS),
        (("sweep", "--cells", "2", "--steps"), optimizer.MAX_LINE_STEPS),
        (("evaluate", "--policy", "hm", "--quad-m"), quadrature.MAX_M),
        (("optimize", "--method", "bnb", "--quad-m"), quadrature.MAX_M),
    ])
    def test_sizes_above_the_cap_are_refused(self, capsys, argv, cap):
        code, out, err = run_cli(capsys, *argv, str(cap + 1))
        assert code == 3 and out == "" and "exceeds the cap of %d" % cap in err

    def test_an_overflowed_value_is_data(self, capsys):
        """A value that overflows is reported as inf, with no numpy warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "optimize", "--method", "grid", "--n", "3",
                                     "--granularity", "0.5", "--objective",
                                     "objective=posynomial terms=1e308:1,1e308:2")
        assert code == 0 and err == "" and caught == []
        assert "value: inf" in out.splitlines()

    def test_line_method(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "line", "--n", "5",
                               "--alpha", "1", "--beta", "2", "--steps", "100")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert fields["structure"] == "HM"


class TestSweep:
    ARGS = ("sweep", "--n", "5", "--cells", "2", "--alpha-min", "0.24",
            "--alpha-max", "0.9", "--beta-min", "2", "--beta-max", "3",
            "--steps", "120", "--quad-m", "4000")

    # the CSV that ARGS writes, pinned byte for byte: refactors of the sweep path keep it
    PINNED = (
        "alpha,beta,p1,p2,value,structure_tag\n"
        "0.24,2,0.25,0.25,0.444500561,UNI\n"
        "0.24,3,0.25,0.25,0.579006206,UNI\n"
        "0.9,2,1,0,0.676190618,HM\n"
        "0.9,3,0.999882097,3.93010242e-05,0.753403782,HM\n"
    )

    def test_rows_parse_and_match_optimize(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert [r["alpha"] for r in rows] == sorted(r["alpha"] for r in rows)
        # the sweep tags at half its p1 spacing; optimize's default tolerance is 1e-6
        tol = repr(0.5 * (1 - 1 / 4) / (120 - 1))
        for cell in rows:
            code, out, _ = run_cli(capsys, "optimize", "--method", "line", "--n", "5",
                                   "--alpha", cell["alpha"], "--beta", cell["beta"],
                                   "--steps", "120", "--quad-m", "4000", "--classify-tol", tol)
            assert code == 0
            fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
            assert float(fields["value"]) == pytest.approx(float(cell["value"]), abs=1e-12)
            assert fields["structure"] == cell["structure_tag"]

    def test_byte_identical_outputs(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(list(self.ARGS) + ["--output", str(first)]) == 0
        assert main(list(self.ARGS) + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text(encoding="utf-8") == self.PINNED

    # an n = 6, 8x8 sweep with 15 UNI, 32 HM and 17 TwoLevel rows, pinned by digest
    LARGER = ("sweep", "--n", "6", "--cells", "8", "--alpha-min", "0.02",
              "--beta-min", "0.3", "--beta-max", "4.5", "--steps", "90", "--quad-m", "3000")
    LARGER_SHA256 = "2068a1155471e617e8797b5c20fc5897c7fc491338c45a6c64e6393d28dcd8fe"

    def test_larger_sweep_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, *self.LARGER)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.LARGER_SHA256

    # `sweep --n 5` with every other option at its default, the 50x50 portrait
    DEFAULT_SHA256 = "59eb7e8d36b3045d9634156c11a2c14ee5b18e8c7a5891fc467ffcd80f982b29"

    def test_default_sweep_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "5")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.DEFAULT_SHA256

    def test_columns_are_the_per_cell_searches(self, capsys, monkeypatch):
        """Every cell of an n = 5, 3x3 sweep is its own line search, to the bit."""
        batches = []

        def spy(specs, beta, n, steps, quad):
            results = batch(specs, beta, n, steps, quad)
            batches.append((specs, beta, results))
            return results

        batch = optimizer.two_level_line_search_batch
        monkeypatch.setattr(optimizer, "two_level_line_search_batch", spy)
        code, out, _ = run_cli(capsys, "sweep", "--n", "5", "--cells", "3",
                               "--alpha-min", "0.1", "--beta-min", "0.5", "--beta-max", "3",
                               "--steps", "40", "--quad-m", "800")
        monkeypatch.undo()
        assert code == 0 and len(batches) == 3
        quad = QuadratureConfig(m=800)
        tol = 0.5 * (1 - 1 / 4) / (40 - 1)
        expected = []
        fam = optimizer._family(5, quad)
        for specs, beta, results in batches:
            assert len(specs) == len(results) == 3
            # a column's gaps cover a dense scan; beside the other alphas'
            # points a gap may be tighter than the single search's
            scanned = optimizer._BatchSums(fam, specs, beta).at(np.linspace(0.25, 1.0, 2001))
            for spec, got, top in zip(specs, results, scanned[0].max(axis=0)):
                want = optimizer.two_level_line_search(spec, beta, 5, steps=40, quad=quad)
                assert got.value == want.value
                assert got.policy.values == want.policy.values
                assert top <= got.value + got.certified_gap - 2.0 * fam.error_bound(spec, beta)
                p = want.policy.values
                expected.append(["%.9g" % v for v in (spec.alpha, beta, p[0], p[1], want.value)]
                                + [classify_structure(want.policy, tol).tag])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows == sorted(expected, key=lambda r: (float(r[0]), float(r[1])))

    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha-max", "1.5", "--alpha-max must lie in [0, 1], got 1.5"),
        ("--alpha-min", "-0.25", "--alpha-min must lie in [0, 1], got -0.25"),
        ("--alpha-min", "nan", "--alpha-min must lie in [0, 1], got nan"),
        ("--beta-max", "inf", "--beta-max must be positive and finite, got inf"),
        ("--beta-min", "0", "--beta-min must be positive and finite, got 0.0"),
        ("--beta-min", "-1", "--beta-min must be positive and finite, got -1.0"),
    ])
    def test_bad_range_is_usage_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "sweep", "--n", "5", "--cells", "2", flag, value)
        assert code == 1 and out == ""
        assert err == "error: %s\n" % message

    def test_budget_guard(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--cells", "200")
        assert code == 3 and "budget" in err

    def test_single_step_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "5", "--cells", "2", "--steps", "1")
        assert code == 1 and "steps" in err and out == ""

    @pytest.mark.parametrize("cells", ["0", "-1"])
    def test_empty_grid_is_usage_error(self, capsys, cells):
        code, out, err = run_cli(capsys, "sweep", "--n", "5", "--cells", cells)
        assert code == 1 and "cell" in err and out == ""


class TestEquilibriumCommand:
    def test_table_and_simulation(self, capsys):
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "hm", "--n", "5",
                                 "--beta", "2", "--points", "5",
                                 "--simulate", "5000", "--seed", "3")
        assert code == 0
        assert "q_max: 1" in err
        lines = out.strip().splitlines()
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[:-1]))))
        assert [float(r["F"]) for r in rows][-1] == 1.0
        report = json.loads(lines[-1])
        assert report["seed"] == 3

    def test_simulation_deterministic(self, capsys):
        args = ("equilibrium", "--policy", "uni", "--n", "5", "--beta", "2",
                "--points", "3", "--simulate", "5000", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_trivial_policy_rejected(self, capsys):
        code, _, err = run_cli(capsys, "equilibrium", "--policy",
                               "0.25,0.25,0.25,0.25", "--beta", "2")
        assert code == 1 and "competition" in err

    def test_empty_deviation_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "hm", "--n", "5",
                                 "--simulate", "2000", "--deviation-grid", "0")
        assert code == 1 and "deviation grid" in err
        assert out == ""  # checked before the CDF table is written

    # stdout of each command, pinned before the sampler, the CDF bisection
    # and the deviation audit were last reworked; the 12-rank policy (p_n = 0)
    # inverts h below the spacing of doubles, and the 3-rank one (p_n > 0)
    # takes the quantile map's shift by p_n.  The 11-rank one (p_n > 0) sorts
    # its 10 opponents by the widest compare-exchange network, over three
    # audit blocks, and was pinned while the opponents were sorted by np.sort
    PINNED = {
        ("--policy", "hm", "--n", "5", "--simulate", "20000"):
            "02e6246791ec8cbefd2edb49553d5f6359bca9395ce3f9cde288368260605365",
        ("--policy", "0.3,0.2,0.1,0.08,0.07,0.06,0.05,0.04,0.04,0.03,0.03,0",
         "--n", "12", "--beta", "1.5", "--simulate", "20000"):
            "570a8fbfabf871107ba2fbae0da2f1f2c100ef244f171228f905c3841d303a78",
        ("--policy", "0.5,0.3,0.2", "--beta", "1.7", "--simulate", "20000"):
            "3256326d8be2c13ed48881b75b207120361fbc21c215939a27940ca3867f1c9e",
        ("--policy", "0.25,0.12,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,0.03",
         "--n", "11", "--beta", "2.5", "--simulate", "40000"):
            "2da46f714b290ac7d4bdb61c9b3dbc60b324a1d558c06bf977cbdc5377976d5e",
    }

    @pytest.mark.parametrize("policy_args", list(PINNED))
    def test_output_is_pinned(self, capsys, policy_args):
        code, out, _ = run_cli(capsys, "equilibrium", *policy_args, "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[policy_args]

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "hm", "--n", "5",
                                 "--simulate", "2000", "--seed", "-1")
        assert code == 1 and out == "" and "--seed" in err

    def test_n_must_match_the_share_list(self, capsys):
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "0.5,0.3,0.2,0",
                                 "--n", "3", "--points", "3")
        assert code == 1 and out == ""
        assert "--n 3 does not match the 4 shares of --policy" in err
        shares = run_cli(capsys, "equilibrium", "--policy", "1,0,0,0,0", "--points", "3")
        named = run_cli(capsys, "equilibrium", "--policy", "hm", "--points", "3")
        assert shares[0] == named[0] == 0 and shares == named

    @pytest.mark.parametrize("flag, cap, extra", [
        ("--points", equilibrium.MAX_TABLE_POINTS, ()),
        ("--deviation-grid", equilibrium.MAX_DEVIATION_GRID, ("--points", "2")),
    ])
    def test_size_above_the_cap_is_refused(self, capsys, flag, cap, extra):
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "hm", "--n", "5",
                                 "--simulate", "2000", flag, str(cap + 1), *extra)
        assert code == 3 and out == "" and "exceeds the cap of %d" % cap in err

    def test_audit_above_the_cells_cap_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "hm", "--n", "41",
                                 "--simulate", "2000", "--deviation-grid",
                                 str(equilibrium.MAX_DEVIATION_GRID))
        assert code == 3 and out == ""
        assert "exceeds the cap of %d" % equilibrium.MAX_AUDIT_CELLS in err

    def test_draws_above_the_cap_are_refused(self, capsys):
        n = equilibrium.MAX_SIM_DRAWS // equilibrium._SIM_CHUNK + 1
        code, out, err = run_cli(capsys, "equilibrium", "--policy", "uni", "--n", str(n),
                                 "--simulate", str(equilibrium._SIM_CHUNK))
        assert code == 3 and out == ""
        assert "exceeds the cap of %d draws" % equilibrium.MAX_SIM_DRAWS in err

    @pytest.mark.parametrize("extra, code", [
        # 40,000 x 250,000 draws a chunk; at n = 40,000 the table takes seconds
        (("--policy", "uni", "--n", "40000", "--deviation-grid", "100",
          "--simulate", "1000000"), 3),
        (("--n", "41", "--deviation-grid", str(equilibrium.MAX_DEVIATION_GRID)), 3),
        (("--deviation-grid", str(equilibrium.MAX_DEVIATION_GRID + 1)), 3),
        (("--deviation-grid", "0"), 1),
        (("--simulate", "999"), 1),
    ], ids=["draws", "cells", "grid_cap", "grid_empty", "sample_floor"])
    def test_audit_is_refused_before_the_table(self, capsys, monkeypatch, extra, code):
        def no_table(*args, **kwargs):
            raise AssertionError("the CDF table was built before the audit's checks")

        monkeypatch.setattr(equilibrium, "cdf_table", no_table)
        got, out, _ = run_cli(capsys, "equilibrium", "--policy", "hm", "--n", "5",
                              "--simulate", "2000", *extra)
        assert got == code and out == ""


class TestVerifyCommand:
    def test_subset_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "bernstein",
                               "--seed", "42", "--trials", "50")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["status"] == "pass" for r in records)
        assert all(r["seed"] == 42 for r in records)

    def test_unknown_filter_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--only", "nosuchcheck")
        assert code == 1

    @pytest.mark.parametrize("only", [(), ("--only", "bernstein")])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_usage_error(self, capsys, monkeypatch, trials, only):
        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "run_checks", never)
        code, out, err = run_cli(capsys, "verify", "--trials", trials, *only)
        assert code == 1 and out == ""
        assert "--trials must be at least 1" in err

    def test_negative_seed_is_usage_error(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "run_checks", never)
        code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--trials", "1",
                                 "--only", "bernstein")
        assert code == 1 and out == "" and "--seed" in err

    def test_whole_registry_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "10")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 26
        assert [r["name"] for r in records] == list(verify.CHECKS)
        assert all(r["status"] == "pass" for r in records)

    def test_small_n_warning_is_logged_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contest_opt.cli", "verify", "--only", "structure",
             "--trials", "20"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        warnings = [line for line in proc.stderr.splitlines() if "interior gradient" in line]
        assert warnings and len(warnings) == len(set(warnings))
        assert sum(line.startswith("n=3 ") for line in warnings) <= 1

    def test_an_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, "verify", "--only", "sign", "--output", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write %s: " % target)
        assert not target.parent.exists()

    def test_deterministic_report(self, capsys):
        args = ("verify", "--only", "structure.sign", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contest_opt.cli", "evaluate", "--policy", "hm",
             "--n", "3", "--beta", "1", "--alpha", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "closed_form" in proc.stdout

    def test_a_sweep_loads_no_scipy(self):
        """The package runs on numpy alone: importing the command line and
        running a one-cell sweep loads no scipy module."""
        script = textwrap.dedent("""
            import sys
            from contest_opt.cli import main
            assert main(["sweep", "--n", "5", "--cells", "1", "--steps", "20",
                         "--quad-m", "400"]) == 0
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv", [
        ("optimize", "--method", "grid", "--n", "5", "--alpha", "0", "--beta", "2",
         "--granularity", "0.05"),
        ("sweep", "--cells", "1"),
    ], ids=["grid", "sweep"])
    def test_no_numpy_ma_is_loaded(self, argv):
        """numpy.ma, which np.unique imports on its first call, takes a
        fresh interpreter 9-14 ms to import; neither command needs it."""
        script = textwrap.dedent("""
            import sys
            from contest_opt.cli import main
            assert main(%r) == 0
            print("numpy.ma" in sys.modules)
        """ % (list(argv),))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    # a usage error, --beta given and then left to its default, another command
    SEQUENCE = (
        ("optimize", "--method", "bogus"),
        ("evaluate", "--policy", "hm", "--n", "4", "--beta", "3"),
        ("evaluate", "--policy", "hm", "--n", "4"),
        ("equilibrium", "--policy", "0.5,0.3,0.2", "--points", "4",
         "--simulate", "1000", "--seed", "2"),
    )

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        """`main` reuses one parser, and nothing of one call reaches the
        next: the calls print the bytes and exit with the codes they do when
        each call builds a parser of its own."""
        assert cli._parser() is cli._parser()
        shared = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 0, 0]
        assert "beta: 3\n" in shared[1][1] and "beta: 2\n" in shared[2][1]
        monkeypatch.undo()
        # a command is looked up when it runs, not when the parser was built
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert main(["verify"]) == 7

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contest_opt.cli", "optimize", "--method", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
