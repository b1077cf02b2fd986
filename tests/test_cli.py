import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from bernfit import approx, cone, kkt
from bernfit import bernstein as bn
from bernfit.cli import main, samples_path


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
        argv = ["--func", "f2", "--mmin", "1", "--mmax", "3",
                "--methods", "project,cone", "--out", str(tmp_path / "errors.csv")]
        assert main(argv) == 0  # the solver's own answers pass the gate
        solve_cone = cone.solve_cone

        def worse(p, **kwargs):
            res = solve_cone(p, **kwargs)
            return dataclasses.replace(res, q=bn.PolyCoeffs(p.degree, res.q.coeffs + 0.5))

        monkeypatch.setattr(cone, "solve_cone", worse)
        assert main(argv) == 2
        _, rows = read_table(tmp_path / "errors.csv")
        assert np.isnan(rows[:, 2]).all() and not np.isnan(rows[:, 1]).any()
        notes = [ln for ln in capsys.readouterr().err.splitlines()
                 if "exceeds the n=m KKT cost" in ln]
        assert len(notes) == 3

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
        ],
    )
    def test_exit_one(self, argv, tmp_path):
        argv = [a if a != "x.csv" else str(tmp_path / "x.csv") for a in argv]
        assert main(argv) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--func", "x/0", "--mmax", "2"],
            # finite on the quadrature nodes, infinite at the sample point x = 0
            ["--func", "1/x", "--mmax", "2", "--samples-degree", "1"],
            # bernstein and p1 sample the target at the control points i/m
            ["--func", "1/x", "--mmin", "1", "--mmax", "2",
             "--methods", "project,p1,bernstein"],
        ],
        ids=["quadrature", "samples", "control-points"],
    )
    def test_non_finite_target(self, argv, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bernfit: ")
        assert not out.exists()

    def test_control_points_unchecked_without_the_sampling_methods(self, tmp_path):
        out = tmp_path / "errors.csv"
        argv = ["--func", "1/x", "--mmin", "1", "--mmax", "2", "--methods", "project"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = read_table(out)
        assert np.isfinite(rows).all()

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
        ],
        ids=["zero", "negative", "one", "below-2mmax", "below-2mmax-2d"],
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
