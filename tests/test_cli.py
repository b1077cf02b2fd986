import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernfit import approx, cli, cone, kkt
from bernfit import bernstein as bn
from bernfit.cli import main, samples_path


ROOT = Path(__file__).resolve().parent.parent


def subprocess_env():
    """The environment with the package's src directory on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def read_table(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


class TestErrorTable:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "errors.csv"
        rc = main(
            [
                "--func", "f1",
                "--mmin", "2",
                "--mmax", "5",
                "--elevate", "0",
                "--elevate", "10",
                "--methods", "project,kkt,kkt-mass,bernstein,p1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_table(out)
        assert header == ["m", "project", "kkt0", "kkt10", "kkt-mass0",
                          "kkt-mass10", "bernstein", "p1"]
        assert rows[:, 0].tolist() == [2.0, 3.0, 4.0, 5.0]
        # the projection is feasible for f1, so every constrained column
        # coincides with the projection column
        for col in (2, 3):
            assert np.max(np.abs(rows[:, col] - rows[:, 1])) < 1e-9
        # cross-check one cell against a direct computation
        f = approx.get_function("f1")
        pr = approx.project(f, 3)
        assert rows[1, 1] == pytest.approx(approx.l2_error(f, pr), abs=1e-15)

    def test_determinism(self, tmp_path):
        args = [
            "--func", "f1",
            "--mmin", "0",
            "--mmax", "6",
            "--elevate", "0",
            "--elevate", "10",
            "--methods", "project,kkt",
            "--out", None,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args[-1] = str(a)
        assert main(list(args)) == 0
        args[-1] = str(b)
        assert main(list(args)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_monotone_projection_column(self, tmp_path):
        out = tmp_path / "mono.csv"
        assert main(["--func", "f0", "--mmax", "8", "--methods", "project",
                     "--out", str(out)]) == 0
        _, rows = read_table(out)
        proj = rows[:, 1]
        assert np.all(proj[1:] <= proj[:-1] + 1e-12)

    def test_2d_run(self, tmp_path):
        out = tmp_path / "g0.csv"
        rc = main(
            [
                "--func", "g0",
                "--dim", "2",
                "--mmin", "0",
                "--mmax", "4",
                "--methods", "project,kkt",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_table(out)
        assert header == ["m", "project", "kkt0"]
        assert np.all(rows[:, 2] >= rows[:, 1] - 1e-12)
        assert np.all(np.diff(rows[:, 1]) <= 1e-12)
        assert np.all(np.diff(rows[:, 2]) <= 1e-12)

    def test_expression_function(self, tmp_path):
        out = tmp_path / "expr.csv"
        rc = main(["--func", "0.5*(sin(2*pi*x)+1)", "--mmax", "3",
                   "--methods", "project", "--out", str(out)])
        assert rc == 0
        ref = tmp_path / "ref.csv"
        assert main(["--func", "f0", "--mmax", "3", "--methods", "project",
                     "--out", str(ref)]) == 0
        assert out.read_text().strip().splitlines()[1:] == \
            ref.read_text().strip().splitlines()[1:]

    def test_feasible_projection_is_every_kkt_cell(self, tmp_path):
        # f1's projection at m = 12 is feasible at every offset, so the
        # constrained cells write the projection's own digits
        out = tmp_path / "errors.csv"
        rc = main(["--func", "f1", "--mmin", "12", "--mmax", "12", "--elevate", "0",
                   "--elevate", "10", "--methods", "project,kkt", "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header == "m,project,kkt0,kkt10"
        m, project, kkt0, kkt10 = row.split(",")
        assert m == "12" and kkt0 == project and kkt10 == project


    def test_nonnegative_projection_is_every_cone_cell(self, tmp_path):
        # f1's projection has nonnegative Bernstein coefficients at every
        # degree, so it is its own cone optimum
        out = tmp_path / "errors.csv"
        rc = main(["--func", "f1", "--mmin", "1", "--mmax", "12",
                   "--methods", "project,cone", "--out", str(out)])
        assert rc == 0
        lines = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(lines) == 12
        assert all(cone_cell == project_cell for _, project_cell, cone_cell in lines)

    def test_nonnegative_function_is_its_cone_cell(self, tmp_path):
        # f0's projection at m = 11, 12 is nonnegative on [0, 1] though not
        # coefficientwise: the cone cell must reach the projection's error,
        # not a solver floor near 1e-6
        out = tmp_path / "errors.csv"
        rc = main(["--func", "f0", "--mmin", "11", "--mmax", "12",
                   "--methods", "project,cone", "--out", str(out)])
        assert rc == 0
        _, rows = read_table(out)
        assert rows[:, 0].tolist() == [11.0, 12.0]
        assert np.all(np.abs(rows[:, 2] - rows[:, 1]) <= 0.02 * rows[:, 1])

    def test_scaled_nonnegative_projection_is_every_cone_cell(self, tmp_path, capsys):
        # f1 times 1e4: the nonnegative projection returns at once with exact
        # zeros, with no convergence test on the roundoff of a scaled target
        out = tmp_path / "errors.csv"
        rc = main(["--func", "1e4*(0.01+x/(x*x+1))", "--mmax", "12",
                   "--methods", "project,cone", "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        lines = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(lines) == 13
        assert all(cone_cell == project_cell for _, project_cell, cone_cell in lines)

    @pytest.mark.parametrize("expr", [
        "0.001*(0.5*(sin(2*pi*x)+1))",  # f0 times 1e-3
        "1e-6*(0.01+x/(x*x+1)-0.3)",  # f2 times 1e-6
    ])
    def test_small_targets_converge_and_pass_the_cost_check(self, expr, tmp_path, capsys):
        # the cone solves on the target divided by a power of 256, so its
        # stopping gradient and its cost act relative to the target's size
        out = tmp_path / "errors.csv"
        rc = main(["--func", expr, "--mmax", "12", "--methods", "cone", "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        _, rows = read_table(out)
        assert rows.shape == (13, 2) and np.all(np.isfinite(rows))


class TestSamples:
    def test_grid_and_feasibility(self, tmp_path):
        out = tmp_path / "errors.csv"
        rc = main(
            [
                "--func", "f0",
                "--mmin", "5",
                "--mmax", "5",
                "--methods", "project,kkt",
                "--samples-degree", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        spath = samples_path(out)
        assert spath.name == "errors_samples.csv"
        header, rows = read_table(spath)
        assert header == ["x", "f", "project", "kkt0"]
        assert rows.shape[0] == 512
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
        # constrained column is nonnegative on the grid
        assert rows[:, 3].min() >= -1e-9
        # unconstrained projection does dip below zero for f0 at m=5
        assert rows[:, 2].min() < -1e-4


class TestFailureHandling:
    def test_partial_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        rc = main(["--func", "f1", "--mmin", "0", "--mmax", "1",
                   "--methods", "project,bernstein", "--out", str(out)])
        assert rc == 2  # bernstein is undefined at m = 0
        _, rows = read_table(out)
        assert math.isnan(rows[0, 2])
        assert not math.isnan(rows[1, 2])
        err = capsys.readouterr().err
        assert "bernstein" in err and "m=0" in err

    def test_every_nan_cell_has_a_note(self, tmp_path, capsys):
        # bernstein and p1 at m = 0
        out = tmp_path / "errors.csv"
        rc = main(["--func", "f1", "--mmin", "0", "--mmax", "12", "--elevate", "10",
                   "--methods", "kkt,bernstein,p1", "--out", str(out)])
        assert rc == 2
        _, rows = read_table(out)
        notes = [ln for ln in capsys.readouterr().err.splitlines()
                 if ln.startswith("bernfit: ")]
        assert int(np.isnan(rows[:, 1:]).sum()) == len(notes) == 2

    def test_cone_cost_gate(self, tmp_path, capsys, monkeypatch):
        # with and without a kkt0 column, which reads the same n = m solve
        argvs = [["--func", "f2", "--mmin", "1", "--mmax", "3", "--methods", methods,
                  "--out", str(tmp_path / "errors.csv")]
                 for methods in ("project,cone", "project,kkt,cone")]
        for argv in argvs:
            assert main(argv) == 0  # the solver's own answers pass the gate
        solve_cone = cone.solve_cone

        def worse(p, **kwargs):
            res = solve_cone(p, **kwargs)
            return dataclasses.replace(res, q=bn.PolyCoeffs(p.degree, res.q.coeffs + 0.5))

        monkeypatch.setattr(cone, "solve_cone", worse)
        capsys.readouterr()
        for argv in argvs:
            assert main(argv) == 2
            _, rows = read_table(tmp_path / "errors.csv")
            assert np.isnan(rows[:, -1]).all() and np.isfinite(rows[:, 1:-1]).all()
            notes = [ln for ln in capsys.readouterr().err.splitlines()
                     if "exceeds the n=m KKT cost" in ln]
            assert len(notes) == 3

    @pytest.mark.parametrize("k", ["1", "0.5^40"])
    def test_cone_cost_gate_acts_relative_to_the_target(self, k, tmp_path, capsys,
                                                        monkeypatch):
        # q = 0 costs p^T M p, 12 times the n = m KKT cost of f2 at m = 8: it
        # is refused at every scale of the target, also at 2^-40, where that
        # cost is 1.2e-25
        f2 = "(26/25)*(1/(1+25*(2*x-1)**2))-1/26"
        solve_cone = cone.solve_cone

        def zero(p):
            q = bn.PolyCoeffs(p.degree, np.zeros(p.degree + 1))
            return dataclasses.replace(solve_cone(p), q=q)

        monkeypatch.setattr(cone, "solve_cone", zero)
        out = tmp_path / "errors.csv"
        rc = main(["--func", f"{k}*({f2})", "--mmin", "8", "--mmax", "8",
                   "--methods", "project,kkt,cone", "--out", str(out)])
        assert rc == 2
        _, rows = read_table(out)
        assert np.isnan(rows[0, 3]) and np.isfinite(rows[0, :3]).all()
        assert "exceeds the n=m KKT cost" in capsys.readouterr().err

    @pytest.mark.parametrize("func, methods, calls", [
        ("f2", "project,kkt,cone", 13),
        # f1's projection is nonnegative at every degree: cost 0, no solve
        ("f1", "project,cone", 0),
        ("f2", "project,cone", 11),
    ])
    def test_each_kkt_problem_is_solved_once(self, func, methods, calls, tmp_path,
                                             monkeypatch):
        solve = kkt.solve
        problems = []

        def counted(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(kkt, "solve", counted)
        assert main(["--func", func, "--mmax", "12", "--methods", methods,
                     "--out", str(tmp_path / "errors.csv")]) == 0
        assert len(problems) == calls
        assert len({(p.m, p.n, p.delta) for p in problems}) == calls

    @pytest.mark.parametrize("func", ["f2", "f3"])
    def test_cone_column_does_not_depend_on_its_neighbours(self, func, tmp_path):
        cells = []
        for methods in ("cone", "project,kkt,cone", "cone,kkt"):
            out = tmp_path / f"{methods}.csv"
            assert main(["--func", func, "--mmax", "12", "--methods", methods,
                         "--out", str(out)]) == 0
            lines = [ln.split(",") for ln in out.read_text().splitlines()]
            at = lines[0].index("cone")
            cells.append([ln[at] for ln in lines[1:]])
        assert len(cells[0]) == 13
        assert cells[1] == cells[0] and cells[2] == cells[0]

    def test_kkt_cells_are_verified(self, tmp_path, capsys, monkeypatch):
        argv = ["--func", "f2", "--mmin", "2", "--mmax", "4", "--elevate", "0",
                "--elevate", "3", "--methods", "project,kkt,kkt-mass",
                "--out", str(tmp_path / "errors.csv")]
        assert main(argv) == 0  # the solver's own answers pass verify_kkt
        solve = kkt.solve

        def perturbed(problem):
            sol = solve(problem)
            q = bn.PolyCoeffs(sol.q.degree, sol.q.coeffs + 1e-3, sol.q.dim)
            return dataclasses.replace(sol, q=q)

        monkeypatch.setattr(kkt, "solve", perturbed)
        assert main(argv) == 2
        header, rows = read_table(tmp_path / "errors.csv")
        assert header[1] == "project" and not np.isnan(rows[:, 1]).any()
        assert np.isnan(rows[:, 2:]).all()
        notes = [ln for ln in capsys.readouterr().err.splitlines() if "verify_kkt failed" in ln]
        assert len(notes) == rows[:, 2:].size == 12
        # q + 1e-3 breaks stationarity, and with delta = 1 the integral most
        for ln in notes:
            name = "integral" if ": kkt-mass" in ln else "stationarity"
            assert f"largest residual is {name}" in ln, ln

    def test_top_of_the_1d_domain_is_solved(self, tmp_path):
        # m = 12 with offset 10: 23 constraints, past the enumerator's budget
        out = tmp_path / "errors.csv"
        rc = main(["--func", "f1", "--mmin", "12", "--mmax", "12", "--elevate", "10",
                   "--methods", "kkt,kkt-mass", "--out", str(out)])
        assert rc == 0
        header, rows = read_table(out)
        assert header == ["m", "kkt10", "kkt-mass10"]
        assert np.isfinite(rows).all()


class TestScaling:
    """A target times 256^i is solved on the target's own bits."""

    EXPRESSIONS_1D = {
        "f0": "0.5*(sin(2*pi*x)+1)",
        "f1": "0.01+x/(x*x+1)",
        "f2": "(26/25)*(1/(1+25*(2*x-1)**2))-1/26",
        "f2alt": "(26/25)*(1/(1+25*(2*x-1)**2)-1/26)",
        "f3": "pi/2+atan(30*(x-0.5))",
    }
    EXPRESSIONS_2D = {
        "g0": "0.5*(1-sin(pi*(x-y)))",
        "g1": "0.01+2*(x-y+1)/((x-y+1)*(x-y+1)+4)",
        "g2": "(26/25)*(1/(1+25*(x-y)**2)-1/26)",
    }

    def scaled_cells(self, expr, argv, tmp_path):
        """The cells of the unscaled run, and of the runs at 256^i for
        i = -1, 1, 2, each of which must exit 0."""
        cells = {}
        for i in (0, -1, 1, 2):
            out = tmp_path / f"scaled{i}.csv"
            func = f"{256.0**i!r}*({expr})" if i else expr
            assert main(["--func", func, *argv, "--out", str(out)]) == 0, func
            cells[i] = read_table(out)[1][:, 1:]
        return cells

    @pytest.mark.parametrize("ident", sorted(EXPRESSIONS_1D))
    def test_every_1d_cell_scales_exactly(self, ident, tmp_path):
        argv = ["--mmax", "12", "--elevate", "0", "--elevate", "10",
                "--methods", "project,kkt,kkt-mass,cone"]
        cells = self.scaled_cells(self.EXPRESSIONS_1D[ident], argv, tmp_path)
        assert cells[0].shape == (13, 6)
        for i in (-1, 1, 2):
            assert np.array_equal(cells[i], 256.0**i * cells[0]), i

    @pytest.mark.parametrize("ident", sorted(EXPRESSIONS_2D))
    def test_every_2d_cell_scales_exactly(self, ident, tmp_path):
        argv = ["--dim", "2", "--mmax", "4", "--methods", "project,kkt,kkt-mass"]
        cells = self.scaled_cells(self.EXPRESSIONS_2D[ident], argv, tmp_path)
        assert cells[0].shape == (5, 3)
        for i in (-1, 1, 2):
            assert np.array_equal(cells[i], 256.0**i * cells[0]), i

    def test_large_target_passes_every_kkt_check(self, tmp_path, capsys):
        # f0 times 1000: solved on f0 * 1000 / 256, where the absolute
        # primal check and KKT_TOL act at f0's size
        out = tmp_path / "errors.csv"
        rc = main(["--func", "1000*(0.5*(sin(2*pi*x)+1))", "--mmax", "12", "--elevate", "0",
                   "--elevate", "10", "--methods", "project,kkt,kkt-mass", "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert np.isfinite(read_table(out)[1]).all()

    def test_zero_target(self, tmp_path, capsys):
        # no power of 256 brings 0 near size 1: it is solved as it is
        out = tmp_path / "errors.csv"
        rc = main(["--func", "0*x", "--mmax", "3", "--methods", "project,kkt,kkt-mass,cone",
                   "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert not read_table(out)[1][:, 1:].any()


class TestSpecErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--func", "nope", "--mmax", "3", "--out", "x.csv"],
            ["--func", "f0", "--mmax", "13", "--out", "x.csv"],
            ["--func", "f0", "--mmax", "3", "--elevate", "11", "--out", "x.csv"],
            ["--func", "f0", "--mmax", "3", "--methods", "magic", "--out", "x.csv"],
            ["--func", "g0", "--dim", "2", "--mmax", "5", "--out", "x.csv"],
            ["--func", "g0", "--dim", "2", "--mmax", "2", "--methods", "cone",
             "--out", "x.csv"],
            ["--func", "g0", "--dim", "2", "--mmax", "2", "--elevate", "1",
             "--out", "x.csv"],
            ["--func", "f0", "--mmin", "4", "--mmax", "2", "--out", "x.csv"],
            ["--func", "f0", "--mmax", "3", "--samples-degree", "9", "--out", "x.csv"],
            ["--func", "f1", "--dim", "2", "--mmax", "2", "--out", "x.csv"],
            ["--mmax", "3", "--out", "x.csv"],
            # every column is computed and written once
            ["--func", "f1", "--mmax", "3", "--methods", "project,kkt,project",
             "--elevate", "0", "--elevate", "0", "--samples-degree", "2", "--out", "x.csv"],
            ["--func", "f1", "--mmax", "3", "--methods", "project,kkt",
             "--elevate", "0", "--elevate", "3", "--elevate", "0", "--out", "x.csv"],
            ["--func", "f1", "--mmax", "3", "--methods", "", "--out", "x.csv"],
        ],
    )
    def test_exit_one(self, argv, tmp_path):
        argv = [a if a != "x.csv" else str(tmp_path / "x.csv") for a in argv]
        assert main(argv) == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--methods", "project,kkt,project", "--elevate", "0", "--elevate", "0"],
             "repeated method 'project'"),
            (["--methods", "kkt", "--elevate", "0", "--elevate", "3", "--elevate", "0"],
             "repeated elevation offset 0"),
            (["--methods", ","], "--methods names no method"),
        ],
        ids=["method", "offset", "empty"],
    )
    def test_columns_given_once(self, argv, named, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        assert main(["--func", "f1", "--mmax", "3", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"bernfit: {named}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--func", "x/0", "--mmax", "2"],
            # finite on the quadrature nodes, infinite at the sample point x = 0
            ["--func", "1/x", "--mmax", "2", "--samples-degree", "1"],
            # bernstein and p1 sample the target at the control points i/m
            ["--func", "1/x", "--mmin", "1", "--mmax", "2",
             "--methods", "project,p1,bernstein"],
            # literals are float64: Python's scalar rules would raise
            # ZeroDivisionError or OverflowError, or give a complex number
            ["--func", "x+1/0", "--mmax", "2"],
            ["--func", "x+10.0**400", "--mmax", "2"],
            ["--func", "(-8)**(1/3)+x", "--mmax", "2"],
            ["--func", "x+1" + "0" * 400, "--mmax", "2"],
        ],
        ids=["quadrature", "samples", "control-points", "int-division",
             "float-overflow", "complex-power", "long-integer"],
    )
    def test_non_finite_target(self, argv, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bernfit: ")
        assert not out.exists()

    def test_huge_integer_power_overflows_at_once(self, tmp_path):
        # as Python integers, 9**9**9 has 370 million digits and never finishes
        proc = subprocess.run(
            [sys.executable, "-m", "bernfit", "--func", "x+9**9**9", "--mmax", "2",
             "--out", str(tmp_path / "errors.csv")],
            capture_output=True, text=True, timeout=60, env=subprocess_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "bernfit: target expr:x+9**9**9 is not finite at every quadrature node"
        ]

    def test_control_points_unchecked_without_the_sampling_methods(self, tmp_path):
        out = tmp_path / "errors.csv"
        argv = ["--func", "1/x", "--mmin", "1", "--mmax", "2", "--methods", "project"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = read_table(out)
        assert np.isfinite(rows).all()

    @pytest.mark.parametrize(
        "extra", [[], ["--samples-degree", "2"]], ids=["errors", "samples"]
    )
    def test_unwritable_output_fails_before_the_first_row(
        self, extra, tmp_path, capsys, monkeypatch
    ):
        rows = []
        monkeypatch.setattr(approx, "project", lambda *a: rows.append(a))
        for out in (tmp_path / "missing" / "errors.csv", tmp_path):
            argv = ["--func", "f1", "--mmax", "3", "--out", str(out)] + extra
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("bernfit: cannot write ")
        assert rows == []
        assert not (tmp_path / "missing").exists()

    def test_failed_write_is_a_note(self, tmp_path, capsys, monkeypatch):
        def refusing(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "open", refusing, raising=False)
        out = tmp_path / "errors.csv"
        assert main(["--func", "f1", "--mmax", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bernfit: cannot write the output: ")
        assert str(out) in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--func", "f1", "--mmax", "3", "--quad-points", "0"],
            ["--func", "f1", "--mmax", "3", "--quad-points", "-2"],
            # exact through degree 2 * 1 - 1 = 1, below 2 * mmax = 24
            ["--func", "f1", "--mmax", "12", "--quad-points", "1"],
            # exact through degree 2 * 3 - 1 = 5, below 2 * mmax = 6
            ["--func", "f1", "--mmax", "3", "--quad-points", "3"],
            # the triangle rule is exact through degree 2 * 4 - 2 = 6, below 8
            ["--func", "g0", "--dim", "2", "--mmax", "4", "--quad-points", "4"],
            # numpy's leggauss is tested only up to degree 100
            ["--func", "f1", "--mmax", "3", "--quad-points", "101"],
        ],
        ids=["zero", "negative", "one", "below-2mmax", "below-2mmax-2d", "above-100"],
    )
    def test_quadrature_too_coarse(self, argv, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bernfit: --quad-points")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--func", "f1", "--mmax", "3", "--quad-points", "4"],
            ["--func", "g0", "--dim", "2", "--mmax", "4", "--quad-points", "5"],
        ],
        ids=["1d", "2d"],
    )
    def test_quadrature_exact_through_2mmax_is_accepted(self, argv, tmp_path):
        out = tmp_path / "errors.csv"
        assert main(argv + ["--methods", "project", "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert np.isfinite(rows).all()


class TestErrorStudy:
    @pytest.mark.parametrize(
        "argv",
        [["--quik"], ["out", "--quik"], ["out", "more"]],
        ids=["flag-alone", "flag-after-outdir", "second-outdir"],
    )
    def test_unknown_argument_is_refused_before_any_work(self, argv, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "error_study.py"), *argv],
            capture_output=True, text=True, timeout=60, env=subprocess_env(), cwd=tmp_path,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error_study: "), proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestBlasThreads:
    """Importing bernfit pins BLAS to one thread unless numpy is loaded first."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def threads(self, imports, **env):
        base = {k: v for k, v in subprocess_env().items() if k not in self.VARS}
        code = f"import os; {imports}; print([os.environ.get(v) for v in {self.VARS!r}])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=base | env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_clean_environment_is_pinned(self):
        assert self.threads("import bernfit") == "['1', '1', '1']"

    def test_explicit_setting_is_kept(self):
        assert self.threads("import bernfit", OPENBLAS_NUM_THREADS="2") == "['2', '1', '1']"

    def test_numpy_loaded_first_is_left_alone(self):
        assert self.threads("import numpy; import bernfit") == "[None, None, None]"
