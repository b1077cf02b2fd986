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
