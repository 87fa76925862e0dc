import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _sections(record):
    """Every object of the record that holds timed pairs with their runs: the
    record itself and the earlier runs kept beside it (BENCH_40.json's earlier
    run kept its summary rows only)."""
    if isinstance(record, dict):
        if "workloads" in record and all("runs" in r for r in record["workloads"].values()):
            yield record
        for value in record.values():
            yield from _sections(value)
    elif isinstance(record, list):
        for value in record:
            yield from _sections(value)


@pytest.mark.parametrize("record", ["BENCH_38.json", "BENCH_40.json", "BENCH_42.json"])
def test_bench_pairs_gives_the_summary_rows_of_the_recorded_runs(record):
    # the protocol behind the record: every row of its summaries follows from
    # its runs, and so does each verdict on a threshold_sweep claim
    tool = _tool()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sections = list(_sections(json.loads((ROOT / record).read_text())))
    assert sections
    for section in sections:
        for result in section["workloads"].values():
            for metric in metrics:
                assert tool.summarize(result["runs"], metric) == result["summary"][metric["name"]]
        if "claim_met" in section:
            summary = section["workloads"]["threshold_sweep"]["summary"]
            assert tool.claim_met(summary["op_s.p50"]) == section["claim_met"]
            assert not tool.claim_met(summary["setup_s"])


def test_bench_pairs_writes_the_fields_of_its_records():
    # what the tool writes is what BENCH_42.json keeps outside its notes
    source = (ROOT / "tools" / "bench_pairs.py").read_text()
    recorded = json.loads((ROOT / "BENCH_42.json").read_text())
    for field in set(recorded) - {"added_by_hand"}:
        assert f'"{field}"' in source


def test_bench_pairs_needs_two_pairs():
    with pytest.raises(SystemExit):
        _tool().main(["--pairs", "1"])
