"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench

Checks that every metric of BENCHMARK.json is emitted, by name and with its
unit, for every workload in both modes; that a tampered result is counted as
a failed execution and left out of the timings; that the span check rejects
silent and unexpected layers; and that the benchmark refuses to run without
the package sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

run._import_package()
import spans  # noqa: E402
import workloads  # noqa: E402
from nmshallow.fourier_scale import load_trajectory, save_trajectory  # noqa: E402


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and np.isfinite(value)
        assert f"{m['name']} = {value} {m['unit']}" in proc.stdout
        if not trace:
            assert value > 0


def _perturb_file(outcome: dict, name: str) -> None:
    path = outcome["out"] / name
    traj = load_trajectory(path)
    traj.snapshots[-1] += 1e-3
    save_trajectory(traj, path)


def _perturb_csv(outcome: dict, name: str) -> None:
    path = outcome["out"] / name
    lines = path.read_text().splitlines()
    iota, residual, error = lines[-1].split(",")
    lines[-1] = ",".join([iota, residual, repr(float(error) * 10.0)])
    path.write_text("\n".join(lines) + "\n")


def _perturb_mode(outcome: dict) -> None:
    final = outcome["solution"].snapshots[-1]
    final[(0,) + (2,) * (final.ndim - 1)] += 1e-3


TAMPER = {
    "flagship": lambda o: _perturb_file(o, "solution_nash_moser.nmtrj"),
    "transit": _perturb_mode,
    "sweep": lambda o: _perturb_csv(o, "stability.csv"),
    "bathy2d": _perturb_mode,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_result_is_failed_not_timed(workload, monkeypatch):
    honest = workloads.WORKLOADS[workload]

    def tampered(inp):
        outcome = honest.execute(inp)
        TAMPER[workload](outcome)
        return outcome

    monkeypatch.setitem(
        workloads.WORKLOADS, workload, dataclasses.replace(honest, execute=tampered)
    )
    values, lines = run.measure(workload, 0, 0.0, False, size="toy")
    assert values["attempted"] == values["failed"] == run.MIN_EXECUTIONS
    assert values["wall_s"] is None
    assert any(line.startswith("FAILED execution 1") for line in lines)
    assert run.result(SPEC, values, False)["correct"] is False


def test_span_check_rejects_silent_and_unexpected_layers():
    problems = spans.check_expectations("transit", {"cli": {"calls": 1}})
    assert "fourier_scale.fft: no calls, but transit must load this layer" in problems
    assert "cli: 1 calls, but transit must not touch this layer" in problems


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
