"""The benchmark's row pipeline writes the same tables as ``bernfit`` does,
so the benchmark times the code path users run."""

import pipeline
from bernfit import approx, cli
from workloads import Column, Invocation


def _same_tables(tmp_path, argv, inv, samples=False):
    cli_out = tmp_path / "cli.csv"
    bench_out = tmp_path / "bench.csv"
    assert cli.main(argv + ["--out", str(cli_out)]) in (0, 2)
    result = pipeline.run_invocation(inv, approx.default_rule(inv.target.dim), bench_out)
    assert result.errors == []
    assert bench_out.read_bytes() == cli_out.read_bytes()
    if samples:
        assert (
            pipeline.samples_path(bench_out).read_bytes()
            == cli.samples_path(cli_out).read_bytes()
        )
    return result


def test_interval_tables_match_cli(tmp_path):
    argv = "--func f2 --mmin 0 --mmax 6 --elevate 0 --elevate 10".split()
    argv += "--methods project,kkt,bernstein,p1 --samples-degree 5".split()
    cols = (
        Column("project", "project"),
        Column("kkt0", "kkt", 0),
        Column("kkt10", "kkt", 10),
        Column("bernstein", "bernstein"),
        Column("p1", "p1"),
    )
    inv = Invocation(approx.get_function("f2"), range(0, 7), cols, samples_degree=5)
    result = _same_tables(tmp_path, argv, inv, samples=True)
    # the m = 0 baselines are the CLI's nan cells, and only they fail
    failed = [(r.m, c.column.name) for r in result.rows for c in r.cells if c.reason]
    assert failed == [(0, "bernstein"), (0, "p1")]


def test_triangle_tables_match_cli(tmp_path):
    argv = "--func g0 --dim 2 --mmin 0 --mmax 3 --methods project,kkt,kkt-mass".split()
    cols = (Column("project", "project"), Column("kkt0", "kkt", 0), Column("kkt-mass0", "kkt-mass", 0))
    inv = Invocation(approx.get_function("g0"), range(0, 4), cols)
    result = _same_tables(tmp_path, argv, inv)
    assert all(c.reason is None for r in result.rows for c in r.cells)
