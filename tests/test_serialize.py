import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernfit import cone, serialize
from bernfit import bernstein as bn

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verify_certificate.py"


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

    def _lines(self, tmp_path):
        # degree 3: "degree,3", then "block,A,2" and "block,B,2", each with two rows
        pt = cone.ConePoint(m=3, A=np.array([[2.0, 1.0], [1.0, 2.0]]), B=np.eye(2))
        serialize.save_cone_point(tmp_path / "cert.csv", pt)
        return (tmp_path / "cert.csv").read_text().splitlines()

    def _load(self, tmp_path, lines):
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        return serialize.load_cone_point(path)

    def test_missing_or_truncated_block(self, tmp_path):
        lines = self._lines(tmp_path)
        with pytest.raises(ValueError, match="no block B"):
            self._load(tmp_path, lines[:4])
        with pytest.raises(ValueError, match="block A is cut short"):
            self._load(tmp_path, lines[:3])
        with pytest.raises(ValueError, match="block B is cut short"):
            self._load(tmp_path, lines[:6])

    def test_repeated_block(self, tmp_path):
        lines = self._lines(tmp_path)
        with pytest.raises(ValueError, match="line 8: block B is repeated"):
            self._load(tmp_path, lines + lines[4:])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry(self, tmp_path, bad):
        lines = self._lines(tmp_path)
        lines[5] = f"0,{bad}"
        with pytest.raises(ValueError, match="line 6: block B has an entry that is not finite"):
            self._load(tmp_path, lines)

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

    @pytest.mark.parametrize("m", [0, 1, 6, 11, 12])
    def test_independent_verifier_accepts_the_diagonal_certificate(self, tmp_path, m):
        # a nonnegative target is returned with a diagonal certificate
        rng = np.random.default_rng(m)
        p = bn.poly(rng.uniform(0.0, 1.0, m + 1))
        res = cone.solve_cone(p)
        assert res.evaluations == 0 and res.q is p
        cert = tmp_path / "cert.csv"
        coeffs = tmp_path / "coeffs.csv"
        serialize.save_cone_point(cert, res.point)
        coeffs.write_text(",".join(serialize.format_float(v) for v in p.coeffs))
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
