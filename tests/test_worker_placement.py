import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "worker_placement", ROOT / "tools" / "worker_placement.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker needs Linux and 2 CPUs")
def test_worker_placement_prints_its_four_rows(capsys):
    # the table's structure, not its numbers: each probe with tiny counts and
    # no busy loop, whose numbers are then `-`
    _tool().report(start=(2, 2), colocation=(1, 3), deep=3, one_cpu=(2, 2), busy=False)
    lines = capsys.readouterr().out.splitlines()
    cpus = len(os.sched_getaffinity(0))
    assert lines[0] == (f"{cpus} CPUs allowed; Jacobians 3 ms apart after the start row; "
                        "ms per Jacobian")
    assert lines[1].split() == ["row", "jacobians", "result"]
    ms = r"\d+\.\d"
    assert re.fullmatch(r"start +2 children x 2 FD +no chunk from the worker in [0-2] of 2",
                        lines[2])
    assert re.fullmatch(rf"co-location +1 children x 3 FD +caller-only Jacobians [0-3], "
                        rf"p50/p90 {ms}/{ms} ms", lines[3])
    cpu = min(os.sched_getaffinity(0))
    assert re.fullmatch(rf"deep +3 deep +p50/p90 {ms}/{ms} ms idle, - ms with a busy loop "
                        rf"on CPU {cpu}", lines[4])
    assert re.fullmatch(rf"one CPU +2 FD, 2 deep +p50 {ms} ms FD, {ms} ms deep", lines[5])
    assert len(lines) == 6


def test_worker_placement_takes_no_argument(capsys):
    assert _tool().main(["--children", "1"]) == 1
    assert capsys.readouterr() == ("", "usage: python3 tools/worker_placement.py\n")
