import importlib.util
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the two files the tool reads of each process; off Linux, or on a kernel
# built without the children file, it cannot run
_PID = os.getpid()
_HAS_PROC = all(Path(f"/proc/{_PID}/{name}").exists()
                for name in ("smaps_rollup", f"task/{_PID}/children"))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "worker_footprint", ROOT / "tools" / "worker_footprint.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.skipif(not _HAS_PROC, reason="the tool reads smaps_rollup and the children file")
def test_worker_footprint_prints_a_row_per_configuration(capsys):
    # the table's structure, not its numbers: one short vortical child per
    # configuration, the worker's rows only where two CPUs are allowed
    _tool().report(1, 0.2, ["vortical"])
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


def test_worker_footprint_takes_no_argument(capsys):
    assert _tool().main(["--ops", "1"]) == 1
    assert capsys.readouterr() == ("", "usage: python3 tools/worker_footprint.py\n")
