"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root::

    python -m pytest perfbench -q

They check that every workload emits every metric ``BENCHMARK.json``
declares, with its unit; that the traced run's layers add up to its wall
clock; that two seeded defects in ``execute`` land in the failure count
instead of passing or crashing the run; that the benchmark's own LCS
solver agrees with ``lcs_reference``; that no child process outlives a
run; and that the command refuses to run without the package sources
beside it.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import random
from multiprocessing import resource_tracker

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import repro.runtime.recover as recover_module  # noqa: E402
from repro.problems import lcs_reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool, tmp_path: Path):
    return bench.run(
        name,
        seed=3,
        seconds=0.01,
        trace=trace,
        size="tiny",
        cache_path=tmp_path / "references.json",
        out_dir=tmp_path / "out",
        setup_repeats=1,
    )


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_with_its_unit(name, trace, tmp_path):
    result, detail = tiny_run(name, trace, tmp_path)
    assert result["correct"], detail["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    metrics = bench.with_units(result["metrics"], declared)
    assert [m["name"] for m in declared] == list(metrics)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    if trace:
        assert detail["additivity"]["passed"], detail["additivity"]
    else:
        assert all(result["metrics"][m["name"]] > 0 for m in declared)


def test_stop_children_leaves_no_process(tmp_path):
    tiny_run("lcs2-2rank", False, tmp_path)  # its shared memory starts the tracker
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lcs_length_matches_lcs_reference():
    rng = random.Random(0)
    cases = [("", "ACGT"), ("A", "A"), workloads.lcs_strings(96, 3)]
    for _ in range(200):
        alphabet = "ACGT"[: rng.randint(1, 4)]
        cases.append(
            tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                for _ in range(2)
            )
        )
    for a, b in cases:
        assert workloads.lcs_length(a, b) == lcs_reference([a, b]), (a, b)


def shift_one_ulp(execute):
    def wrapped(*args, **kwargs):
        result = execute(*args, **kwargs)
        result.objective_value = float(np.nextafter(result.objective_value, np.inf))
        return result

    return wrapped


def raise_always(execute):
    def wrapped(*args, **kwargs):
        raise RuntimeError("seeded defect")

    return wrapped


@pytest.mark.parametrize("defect", [shift_one_ulp, raise_always])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeded_defect_counts_as_failed(name, defect, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "execute", defect(workloads.execute))
    monkeypatch.setattr(recover_module, "execute", defect(recover_module.execute))
    result, detail = tiny_run(name, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"] == 0.0
    assert detail["checks"]["failures"]


class _Layer:
    def outer(self, n):
        return sum(self.inner() for _ in self.steps(n))

    def inner(self):
        return 1

    def steps(self, n):
        yield from range(n)


def test_tracer_self_times_add_up_and_uninstall_restores():
    originals = dict(vars(_Layer))
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner")
    tracer.wrap_generator(_Layer, "steps", "steps")
    tracer.solve = 0
    try:
        assert _Layer().outer(5) == 5
    finally:
        tracer.uninstall()
    assert all(vars(_Layer)[k] is v for k, v in originals.items())
    prof = tracer.per_solve()[0]
    assert prof.calls == {"outer": 1, "inner": 5, "steps": 6}
    assert prof.negative_self == 0 and tracer.nesting_errors == 0
    assert math.isclose(sum(prof.self_s.values()), prof.top_level_s, rel_tol=1e-9)
    assert math.isclose(prof.top_level_s, prof.total_s["outer"], rel_tol=1e-9)


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "cache", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lcs2-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
