"""Span tracer for the traced benchmark run, installed from outside the package.

`Tracer.install` wraps the public entry points of each layer in spans
(name, start, end, parent span, workload id). The library modules import
several of these functions by name (``from .green_naghdi import nonlinear_F``),
so every binding of each function in every loaded ``nmshallow`` module is
replaced, not only the defining one. Spans stay in memory until `write_csv`.

`check_expectations` turns a silent span into an error: a layer the workload
must load has to record calls, and a layer it must not touch has to record
none.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import math
import sys
import time
from pathlib import Path

import numpy as np

from nmshallow import green_naghdi, linear_ivp, nash_moser, reference
from nmshallow.fourier_scale import GridSpec
from nmshallow.gn_problem import GNProblem

ALL = ("flagship", "transit", "sweep", "bathy2d")

# span name -> the workloads on which that layer carries load. On every other
# workload the span must record zero calls.
LOADED_IN = {
    "fourier_scale.fft": ALL,
    "green_naghdi.invert_bigT": ALL,
    "green_naghdi.nonlinear_F": ALL,
    "green_naghdi.apply_K": ("flagship",),
    "green_naghdi.build_linearized_coeffs": ("flagship",),
    "linear_ivp.evolve_packed": ALL,
    "linear_ivp.solve_linearized": ("flagship",),
    "reference.mol_solve": ALL,
    "reference.manufactured_residual": ("sweep",),
    "nash_moser.solve": ("flagship",),
    "nash_moser.initial_iterate": ("flagship",),
    "nash_moser.residual": ("flagship",),
    "nash_moser.linearize": ("flagship",),
    "nash_moser.linear_solve": ("flagship",),
    "nash_moser.norms": ("flagship",),
    "nash_moser.admissible": ("flagship",),
    "gn_problem.evaluate_G": ("flagship",),
    "cli": ("flagship", "sweep"),
}

FFT_BYTES_PER_POINT = 32  # complex128 in + complex128 out, as computed


def _rk_substeps(params, grid: GridSpec, T: float, dt: float) -> int:
    """Sub-steps of one integrator call, from its T, dt and the dispersive cap."""
    n_steps = max(1, int(round(T / dt)))
    cap = linear_ivp.dispersive_dt_cap(params, grid)
    return n_steps * max(1, int(math.ceil((T / n_steps) / cap - 1e-12)))


class Tracer:
    def __init__(self) -> None:
        # One row per span: [name, parent index, start ns, end ns, workload id].
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.run_id = ""
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording
    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, stack[-1], clock(), 0, self.run_id]
            spans.append(row)
            stack.append(idx)
            try:
                if on_call is None:
                    return fn(*args, **kwargs)
                return on_call(fn, args, kwargs)
            finally:
                row[3] = clock()
                stack.pop()

        return traced

    # -------------------------------------------------------------- bindings
    def _rebind(self, original, wrapper) -> None:
        """Point every nmshallow binding of `original` at `wrapper`."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nmshallow" and not mod_name.startswith("nmshallow."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {original.__qualname__} to trace")

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, cli_owner, cli_attr: str) -> None:
        """Wrap every layer; `cli_owner.cli_attr` is the harness's CLI entry."""
        for cls, attr, name, hook in (
            (GridSpec, "to_grid", "fourier_scale.fft", self._on_fft),
            (GridSpec, "from_grid", "fourier_scale.fft", self._on_fft),
            (GNProblem, "evaluate_G", "gn_problem.evaluate_G", None),
            (GNProblem, "linearize", "nash_moser.linearize", None),
            (GNProblem, "solve_linearized", "nash_moser.linear_solve", None),
            (GNProblem, "snapshot_norm", "nash_moser.norms", None),
            (GNProblem, "admissible", "nash_moser.admissible", None),
        ):
            self._set(cls, attr, self.wrap(name, getattr(cls, attr), hook))
        for fn, name, hook in (
            (green_naghdi.invert_bigT, "green_naghdi.invert_bigT", self._on_invert),
            (green_naghdi.nonlinear_F, "green_naghdi.nonlinear_F", None),
            (green_naghdi.apply_K, "green_naghdi.apply_K", None),
            (green_naghdi.build_linearized_coeffs, "green_naghdi.build_linearized_coeffs", None),
            (linear_ivp.evolve_packed, "linear_ivp.evolve_packed", None),
            (linear_ivp.solve_linearized, "linear_ivp.solve_linearized", self._on_linearized),
            (reference.mol_solve, "reference.mol_solve", self._on_mol),
            (reference.manufactured_residual, "reference.manufactured_residual", None),
            (nash_moser.nash_moser_solve, "nash_moser.solve", self._on_nash_moser),
            (nash_moser.initial_iterate, "nash_moser.initial_iterate", None),
            (nash_moser.residual, "nash_moser.residual", None),
        ):
            self._rebind(fn, self.wrap(name, fn, hook))
        self._set(cli_owner, cli_attr, self.wrap("cli", getattr(cli_owner, cli_attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, cli_owner, cli_attr: str):
        self.install(cli_owner, cli_attr)
        try:
            yield self
        finally:
            self.uninstall()

    # ---------------------------------------------------------- layer counts
    def _on_fft(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self._count("fft_bytes", FFT_BYTES_PER_POINT * int(np.size(out)))
        return out

    _INVERT_SIG = inspect.signature(green_naghdi.invert_bigT)

    def _on_invert(self, fn, args, kwargs):
        bound = self._INVERT_SIG.bind(*args, **kwargs)
        wanted = bound.arguments.get("return_info", False)
        bound.arguments["return_info"] = True
        W, info = fn(*bound.args, **bound.kwargs)
        iters = int(info["iterations"])
        self._count("cg_iters", iters)
        self.counts["cg_iters_max"] = max(self.counts.get("cg_iters_max", 0), iters)
        return (W, info) if wanted else W

    _MOL_SIG = inspect.signature(reference.mol_solve)
    _LIN_SIG = inspect.signature(linear_ivp.solve_linearized)

    def _on_mol(self, fn, args, kwargs):
        a = self._MOL_SIG.bind(*args, **kwargs).arguments
        self._count("rk_substeps", _rk_substeps(a["params"], a["u0"].grid, a["T"], a["dt"]))
        return fn(*args, **kwargs)

    def _on_linearized(self, fn, args, kwargs):
        a = self._LIN_SIG.bind(*args, **kwargs).arguments
        ivp = a["ivp"]
        self._count("rk_substeps", _rk_substeps(a["params"], ivp.initial.grid, ivp.horizon, ivp.dt))
        return fn(*args, **kwargs)

    def _on_nash_moser(self, fn, args, kwargs):
        u, trace = fn(*args, **kwargs)
        schedule = args[1] if len(args) > 1 else kwargs["schedule"]
        self._count("nm_iterations", len(trace.theta) - 1)
        self._count("nm_retries", int(round(math.log2(trace.theta[0] / schedule.theta0))))
        return u, trace

    # -------------------------------------------------------------- reporting
    def summary(self, first: int, last: int) -> dict:
        """Calls, inclusive and self seconds per span name over spans[first:last]."""
        rows = self.spans[first:last]
        names = [r[0] for r in rows]
        parents = np.array([r[1] - first for r in rows], dtype=np.int64)
        dur = np.array([r[3] - r[2] for r in rows], dtype=np.float64) * 1e-9
        child = np.zeros(len(rows))
        inside = parents >= 0
        np.add.at(child, parents[inside], dur[inside])
        out: dict[str, dict] = {}
        for i, name in enumerate(names):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return out

    def write_csv(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "name", "start_ns", "end_ns", "workload_id"])
            for i, (name, parent, start, end, run_id) in enumerate(self.spans):
                writer.writerow([i, parent, name, start, end, run_id])


def check_expectations(workload: str, summary: dict) -> list[str]:
    """Mismatches between recorded calls and the layers `workload` must load."""
    problems = []
    for name, loaded_in in LOADED_IN.items():
        calls = summary.get(name, {}).get("calls", 0)
        if workload in loaded_in and calls == 0:
            problems.append(f"{name}: no calls, but {workload} must load this layer")
        if workload not in loaded_in and calls != 0:
            problems.append(f"{name}: {calls} calls, but {workload} must not touch this layer")
    return problems


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced execution."""

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    fft_calls = get("fourier_scale.fft", "calls")
    solves = get("green_naghdi.invert_bigT", "calls")
    substeps = counts.get("rk_substeps", 0)
    integrator_s = get("reference.mol_solve", "s") + get("linear_ivp.solve_linearized", "s")
    return {
        "fourier_scale.fft_calls": fft_calls,
        "fourier_scale.fft_s": get("fourier_scale.fft", "s"),
        "fourier_scale.fft_us_per_call": 1e6 * get("fourier_scale.fft", "s") / fft_calls
        if fft_calls else 0.0,
        "fourier_scale.fft_bytes_computed": counts.get("fft_bytes", 0),
        "green_naghdi.invert_bigT.calls": solves,
        "green_naghdi.invert_bigT.self_s": get("green_naghdi.invert_bigT", "self_s"),
        "green_naghdi.cg_iters": counts.get("cg_iters", 0),
        "green_naghdi.cg_iters_per_solve": counts.get("cg_iters", 0) / solves if solves else 0.0,
        "green_naghdi.cg_iters_max": counts.get("cg_iters_max", 0),
        "green_naghdi.nonlinear_F.calls": get("green_naghdi.nonlinear_F", "calls"),
        "green_naghdi.nonlinear_F.self_s": get("green_naghdi.nonlinear_F", "self_s"),
        "green_naghdi.apply_K.calls": get("green_naghdi.apply_K", "calls"),
        "green_naghdi.apply_K.self_s": get("green_naghdi.apply_K", "self_s"),
        "green_naghdi.build_linearized_coeffs.s": get("green_naghdi.build_linearized_coeffs", "s"),
        "linear_ivp.rk_substeps": substeps,
        "linear_ivp.rk_substep_ms": 1e3 * integrator_s / substeps if substeps else 0.0,
        "linear_ivp.evolve_packed.calls": get("linear_ivp.evolve_packed", "calls"),
        "linear_ivp.evolve_packed.s": get("linear_ivp.evolve_packed", "s"),
        "linear_ivp.solve_linearized.s": get("linear_ivp.solve_linearized", "s"),
        "reference.mol_solve.s": get("reference.mol_solve", "s"),
        "reference.manufactured_residual.s": get("reference.manufactured_residual", "s"),
        "nash_moser.initial_iterate.s": get("nash_moser.initial_iterate", "s"),
        "nash_moser.residual.s": get("nash_moser.residual", "s"),
        "nash_moser.linearize.s": get("nash_moser.linearize", "s"),
        "nash_moser.linear_solve.s": get("nash_moser.linear_solve", "s"),
        "nash_moser.norms.s": get("nash_moser.norms", "s"),
        "nash_moser.admissible.s": get("nash_moser.admissible", "s"),
        "nash_moser.iterations": counts.get("nm_iterations", 0),
        "nash_moser.retries": counts.get("nm_retries", 0),
        "gn_problem.evaluate_G.calls": get("gn_problem.evaluate_G", "calls"),
        "cli.self_s": get("cli", "self_s"),
    }
