"""``tools/record_bench.py``: perfbench results into the trajectory."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record_bench = load_tool("record_bench")
check_bench = load_tool("check_bench")

#: What perfbench prints: a record line, then the result object.
RESULT = {"correct": True, "failed": 0,
          "metrics": {"p50_ms": {"value": 12.5, "unit": "ms"}}}
RUN_OUTPUT = "\n".join([
    json.dumps({"environment": {"seed": 3, "seconds": 50,
                                "workload": {"name": "cold-paper"}},
                "gates": {"identity_identical": True}}),
    json.dumps(RESULT),
    "",
])


def test_entry_carries_result_run_cores_rev_and_why():
    entry = record_bench.make_entry(RUN_OUTPUT, " point location ",
                                    "abc123", cores=2)
    assert entry == {"mode": "perfbench", "result": RESULT,
                     "workload": "cold-paper", "seed": 3, "seconds": 50,
                     "cores": 2, "git_rev": "abc123",
                     "why": "point location"}


def test_output_without_a_record_keeps_the_result_only():
    entry = record_bench.make_entry(json.dumps(RESULT), "why", "abc123")
    assert entry["result"] == RESULT
    assert "workload" not in entry and "seed" not in entry


@pytest.mark.parametrize("text,why", [
    (RUN_OUTPUT, "   "),
    ("", "a reason"),
    ("not json\n", "a reason"),
    ("[1, 2]\n", "a reason"),
])
def test_bad_input_or_blank_note_is_refused(text, why):
    with pytest.raises(ValueError):
        record_bench.make_entry(text, why, "abc123")


def test_main_appends_a_well_formed_entry(tmp_path):
    run = tmp_path / "run.out"
    run.write_text(RUN_OUTPUT)
    trajectory = tmp_path / "traj.json"
    for why in ("baseline", "the change"):
        assert record_bench.main([str(run), "--why", why, "--rev", "f00d",
                                  "--trajectory", str(trajectory)]) == 0
    doc = json.loads(trajectory.read_text())
    assert [e["why"] for e in doc["entries"]] == ["baseline", "the change"]
    assert all(e["cores"] >= 1 and e["git_rev"] == "f00d"
               for e in doc["entries"])
    assert check_bench.check_trajectory(trajectory) == []


def test_main_requires_a_note(tmp_path, capsys):
    run = tmp_path / "run.out"
    run.write_text(RUN_OUTPUT)
    with pytest.raises(SystemExit):
        record_bench.main([str(run), "--trajectory",
                           str(tmp_path / "traj.json")])
    assert not (tmp_path / "traj.json").exists()
