import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the two files the memory probe reads of each process; off Linux, or on a
# kernel built without the children file, it cannot run
_PID = os.getpid()
_HAS_PROC = all(Path(f"/proc/{_PID}/{name}").exists()
                for name in ("smaps_rollup", f"task/{_PID}/children"))

# the package of a `src/` that loads every module from the real capwave and
# makes a child exit before a timed op (`cli.main`, `linearization.jacobian_fd`)
# unless the child has made both calls that set up a process as cli.main does
GUARDED = """
__path__[:] = [{real!r}]
exec(compile(open(__path__[0] + "/__init__.py").read(), __path__[0] + "/__init__.py", "exec"))
from . import cli, linearization
made = set()
def _setup(call):
    def recorded():
        made.add(call.__name__)
        return call()
    return recorded
def _timed(call):
    def op(*args, **kwargs):
        if made != {{"_keep_heap", "_one_blas_thread"}}:
            raise SystemExit(f"{{call.__name__}} before {{sorted(made)}} of the setup")
        return call(*args, **kwargs)
    return op
cli._keep_heap, cli._one_blas_thread = _setup(cli._keep_heap), _setup(cli._one_blas_thread)
cli.main, linearization.jacobian_fd = _timed(cli.main), _timed(linearization.jacobian_fd)
"""


@pytest.fixture
def tool(tmp_path, monkeypatch):
    """tools/worker_probe.py, its children started on the guarded `src/`."""
    spec = importlib.util.spec_from_file_location("worker_probe", ROOT / "tools" / "worker_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    (tmp_path / "capwave").mkdir()
    (tmp_path / "capwave" / "__init__.py").write_text(
        GUARDED.format(real=str(ROOT / "src" / "capwave")))
    monkeypatch.setattr(probe, "SRC", tmp_path)
    return probe


@pytest.mark.skipif(not _HAS_PROC, reason="the probe reads smaps_rollup and the children file")
def test_worker_probe_prints_a_memory_row_per_configuration(tool, capsys):
    # the table's structure, not its numbers: one short vortical child per
    # configuration, the worker's rows only where two CPUs are allowed
    tool.memory(1, 0.2, ["vortical"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 ops per child, 0.2 s idle, at rest 0.08-0.18 s")
    assert lines[1].split() == ["shape", "cpus", "peak_pss_mb", "rest_pss_mb", "worker_private_mb"]
    cpus = len(os.sched_getaffinity(0))
    rows = [line.split() for line in lines[2:2 + (2 if cpus > 1 else 1)]]
    number = re.compile(r"^\d+\.\d$")
    for row in rows:
        assert row[0] == "vortical" and number.match(row[2]) and number.match(row[3])
        assert float(row[2]) >= float(row[3]) > 0.0
    assert [row[1] for row in rows] == ([str(cpus), "1"] if cpus > 1 else ["1"])
    assert rows[-1][4] == "-"  # one CPU forks no worker
    if cpus > 1:
        assert number.match(rows[0][4])
        assert re.fullmatch(rf"at rest, {cpus} CPUs / 1 CPU: vortical \d+\.\d{{3}}", lines[4])
        assert len(lines) == 5
    else:
        assert len(lines) == 3


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker needs Linux and 2 CPUs")
def test_worker_probe_prints_the_three_placement_rows(tool, capsys):
    # the table's structure, not its numbers: each probe with tiny counts
    tool.placement(colocation=(1, 3), deep=3, one_cpu=(2, 2))
    lines = capsys.readouterr().out.splitlines()
    cpus = len(os.sched_getaffinity(0))
    assert lines[0] == f"{cpus} CPUs allowed; Jacobians 3 ms apart; ms per Jacobian"
    assert lines[1].split() == ["row", "jacobians", "result"]
    ms = r"\d+\.\d"
    assert re.fullmatch(rf"co-location +1 children x 3 FD +caller-only Jacobians [0-3], "
                        rf"p50/p90 {ms}/{ms} ms", lines[2])
    cpu = min(os.sched_getaffinity(0))
    assert re.fullmatch(rf"deep +3 deep +p50/p90 {ms}/{ms} ms idle, {ms}/{ms} ms with a busy "
                        rf"loop on CPU {cpu}", lines[3])
    assert re.fullmatch(rf"one CPU +2 FD, 2 deep +p50 {ms} ms FD, {ms} ms deep", lines[4])
    assert len(lines) == 5


def test_worker_probe_takes_no_argument(tool, capsys):
    assert tool.main(["--ops", "1"]) == 1
    assert capsys.readouterr() == ("", "usage: python3 tools/worker_probe.py\n")
