"""The benchmark's own test.

Runs every workload at a tiny size through ``run.main`` and checks that
every metric named in BENCHMARK.json is printed with its unit, that a
corrupted prediction raises the error rate, and that the command fails
cleanly where the program is missing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Smallest key sizes each shape accepts: the enhanced protocol needs
#: (h + 1) * 127 + 128 bits at depth 1.
TINY_KEYSIZE = {"basic-splits": 256, "enhanced-rows": 384, "deployed-sockets": 128}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    workloads = {
        name: replace(w, n=16, dbar=1, b=2, h=1, keysize=TINY_KEYSIZE[name], setups=3)
        for name, w in run.WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "MIN_REQUESTS", 12)
    monkeypatch.setattr(run, "TRACED_REQUESTS", 4)
    monkeypatch.setattr(run, "SPAN_DIR", str(tmp_path))


def run_main(capsys, workload: str, trace: int) -> tuple[list[str], dict, str]:
    """Standard output lines, the result object and standard error."""
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return lines, json.loads(lines[-1]), captured.err


def test_workloads_match_the_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    lines, result, _ = run_main(capsys, workload, trace)
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_corrupted_prediction_raises_error_rate(tiny, capsys, monkeypatch):
    real = run.predict_row
    calls = []

    def corrupted(clf, inputs, row):
        calls.append(row)
        out = real(clf, inputs, row)
        return (out + 1) % run.CLASSES if len(calls) == 1 else out

    monkeypatch.setattr(run, "predict_row", corrupted)
    _, result, _ = run_main(capsys, "basic-splits", 0)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(
        1 - 1 / result["attempted"]
    )


def test_a_raising_fit_counts_as_failed(tiny, capsys, monkeypatch):
    real = run.fit
    calls = []

    def flaky(fed):
        calls.append(fed)
        if len(calls) == 1:
            raise RuntimeError("injected fit failure")
        return real(fed)

    monkeypatch.setattr(run, "fit", flaky)
    _, result, _ = run_main(capsys, "basic-splits", 0)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == run.FITS + run.MIN_REQUESTS
    assert result["metrics"]["fit_s"]["value"] > 0


def test_a_tree_collapsed_to_one_leaf_fails_the_leaf_check(tiny, capsys, monkeypatch):
    import checks

    labels = run.make_inputs(run.WORKLOADS["basic-splits"], 3)["labels"]
    majority = int(np.bincount(labels).argmax())
    real = checks.open_tree

    def collapsed(model, fed):
        real(model, fed)
        return checks.Node(label=majority)

    monkeypatch.setattr(checks, "open_tree", collapsed)
    _, result, err = run_main(capsys, "basic-splits", 0)
    assert result["failed"] >= run.FITS and not result["correct"]
    assert "leaf root: best gain" in err and "not a majority" not in err


def test_uncovered_time_fails_the_coverage_check():
    import spans

    tracer = spans.Tracer()
    tracer.spans.append(["Federation.__init__", "federation", "", 0, 10**9, None, "setup"])
    tracer.spans.append(["TreeTrainer.fit", "core", "", 0, 10**9, None, "fit"])
    with pytest.raises(run.InvariantError, match="below the federation facade"):
        run.check_coverage(tracer, {"setup": (1.0, 1), "fit": (1.0, 1)})
    tracer.spans[1][1] = "federation"
    run.check_coverage(tracer, {"setup": (1.0, 1), "fit": (1.001, 1)})
    with pytest.raises(run.InvariantError, match="fit: self times"):
        run.check_coverage(tracer, {"setup": (1.0, 1), "fit": (1.5, 1)})
    with pytest.raises(run.InvariantError, match="setup: self times"):
        run.check_coverage(tracer, {"setup": (0.5, 1), "fit": (1.0, 1)})


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basic-splits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
