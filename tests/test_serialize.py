import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernfit import cone, kkt, serialize
from bernfit import bernstein as bn

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verify_certificate.py"


class TestMatrixCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 7)) * np.exp(rng.uniform(-20, 20, (4, 7)))
        path = tmp_path / "m.csv"
        serialize.save_matrix_csv(path, M)
        back = serialize.load_matrix_csv(path)
        assert np.array_equal(back, M)  # %.17g is lossless for doubles

    def test_header(self, tmp_path):
        path = tmp_path / "m.csv"
        serialize.save_matrix_csv(path, np.eye(2), header=["a", "b"])
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        back = serialize.load_matrix_csv(path, skip_header=True)
        assert np.array_equal(back, np.eye(2))

    def test_multiindex_header(self):
        hdr = serialize.multiindex_header(2, 1)
        assert hdr == ["a1_0_0", "a0_1_0", "a0_0_1"]


class TestRecords:
    def test_problem_round_trip(self):
        p = kkt.KktProblem(
            dim=2, m=1, n=2, target=np.array([-1.0, 0.25, 1e-17]), delta=1
        )
        back = serialize.problem_from_record(serialize.problem_to_record(p))
        assert back.dim == p.dim and back.m == p.m and back.n == p.n
        assert back.delta == p.delta
        assert np.array_equal(back.target, p.target)

    def test_record_with_upper_is_rejected(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([2.0, 2.0]))
        text = serialize.problem_to_record(p) + "upper=1\n"
        with pytest.raises(ValueError, match="upper"):
            serialize.problem_from_record(text)

    def test_solution_record_and_summary(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        s = kkt.solve(p)
        rec = serialize.solution_to_record(s)
        assert "kind=kkt_solution" in rec
        assert "active_set=0" in rec
        summary = serialize.solution_summary(s)
        # diagnostics come in a fixed column order
        names = [cell.split("=")[0] for cell in summary.split()]
        assert names == ["J", *serialize.SOLUTION_FIELDS]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            serialize.problem_from_record("kind=nope\n")


class TestConeCertificate:
    def test_round_trip(self, tmp_path):
        res = cone.solve_cone(bn.poly([-0.5, 0.3, 0.8, -0.1]))
        path = tmp_path / "cert.csv"
        serialize.save_cone_point(path, res.point)
        back = serialize.load_cone_point(path)
        assert back.m == res.point.m
        assert np.array_equal(back.A, res.point.A)
        assert np.array_equal(back.B, res.point.B)

    def test_empty_block_round_trip(self, tmp_path):
        pt = cone.ConePoint(m=0, A=np.array([[2.0]]), B=np.zeros((0, 0)))
        path = tmp_path / "cert0.csv"
        serialize.save_cone_point(path, pt)
        back = serialize.load_cone_point(path)
        assert back.A[0, 0] == 2.0 and back.B.shape == (0, 0)

    @pytest.mark.parametrize("m", [1, 2, 4, 5])
    def test_independent_verifier_accepts(self, tmp_path, m):
        rng = np.random.default_rng(m)
        p = bn.poly(rng.uniform(-1, 1, m + 1))
        res = cone.solve_cone(p)
        cert = tmp_path / "cert.csv"
        coeffs = tmp_path / "coeffs.csv"
        serialize.save_cone_point(cert, res.point)
        coeffs.write_text(",".join(serialize.format_float(v) for v in res.q.coeffs))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(cert), "--coeffs", str(coeffs)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_independent_verifier_rejects_indefinite(self, tmp_path):
        pt = cone.ConePoint(m=2, A=np.array([[1.0, 0.0], [0.0, -1.0]]), B=np.zeros((1, 1)))
        cert = tmp_path / "bad.csv"
        serialize.save_cone_point(cert, pt)
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), str(cert)], capture_output=True, text=True
        )
        assert proc.returncode == 1
