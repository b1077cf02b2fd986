import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernfit import approx, cone, serialize
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

    def test_negative_degree(self, tmp_path):
        # two empty blocks have the sizes _block_sizes(-1) gives
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            self._load(tmp_path, ["degree,-1", "block,A,0", "block,B,0"])

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


@pytest.fixture(scope="module")
def verify():
    """The script's main(argv), loaded in this process."""
    return runpy.run_path(str(SCRIPT))["main"]


def _save(path, point, coeffs):
    serialize.save_cone_point(path / "cert.csv", point)
    (path / "coeffs.csv").write_text(",".join(serialize.format_float(v) for v in coeffs))
    return [str(path / "cert.csv"), "--coeffs", str(path / "coeffs.csv")]


class TestVerifier:
    def _refused(self, verify, capsys, argv, name, reason):
        assert verify(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"verify_certificate: {name}: {reason}"]

    def _cert(self, tmp_path, lines):
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_refuses_a_repeated_block(self, verify, tmp_path, capsys):
        # the first copy of B is indefinite, the second is not
        path = self._cert(tmp_path, ["degree,2", "block,A,2", "1,0", "0,1",
                                     "block,B,1", "-5", "block,B,1", "1"])
        self._refused(verify, capsys, [path], path, "line 7: block B is repeated")

    def test_refuses_a_missing_block(self, verify, tmp_path, capsys):
        path = self._cert(tmp_path, ["degree,2", "block,A,2", "1,0", "0,1"])
        self._refused(verify, capsys, [path], path, "certificate has no block B")

    def test_refuses_a_non_finite_entry(self, verify, tmp_path, capsys):
        path = self._cert(tmp_path, ["degree,2", "block,A,2", "1,nan", "nan,1",
                                     "block,B,1", "1"])
        self._refused(verify, capsys, [path], path,
                      "line 3: block A has an entry that is not finite")

    def test_refuses_a_negative_degree(self, verify, tmp_path, capsys):
        path = self._cert(tmp_path, ["degree,-1", "block,A,0", "block,B,0"])
        self._refused(verify, capsys, [path], path, "degree must be nonnegative, got -1")

    def test_refuses_a_malformed_coeffs_file(self, verify, tmp_path, capsys):
        point = cone.ConePoint(m=1, A=np.eye(1), B=np.eye(1))
        argv = _save(tmp_path, point, [1.0, 1.0])
        (tmp_path / "coeffs.csv").write_text("1,one\n")
        self._refused(verify, capsys, argv, argv[2],
                      "could not convert string to float: 'one'")

    def test_refuses_a_missing_coeffs_file(self, verify, tmp_path, capsys):
        point = cone.ConePoint(m=1, A=np.eye(1), B=np.eye(1))
        argv = _save(tmp_path, point, [1.0, 1.0])[:2] + [str(tmp_path / "none.csv")]
        assert verify(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"verify_certificate: {argv[2]}: ")

    def test_fails_a_coefficient_mismatch(self, verify, tmp_path, capsys):
        # q = (1 - x) + x = 1 is certified; the stored coefficients are 1, 2
        argv = _save(tmp_path, cone.ConePoint(m=1, A=np.eye(1), B=np.eye(1)), [1.0, 2.0])
        assert verify(argv) == 1
        assert "max gap 1.000e+00 -> FAIL" in capsys.readouterr().out

    def test_accepts_every_corpus_cone_cell(self, verify, tmp_path, capsys):
        for ident in ("f0", "f1", "f2", "f2alt", "f3"):
            f = approx.get_function(ident)
            for m in range(13):
                res = cone.solve_cone(approx.project(f, m))
                assert res.converged, (ident, m)
                assert verify(_save(tmp_path, res.point, res.q.coeffs)) == 0, (
                    ident, m, capsys.readouterr().out)
