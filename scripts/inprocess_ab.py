"""Interleaved in-process timing of one layer: this checkout against another.

    python3 scripts/inprocess_ab.py --against DIR --layer mol_solve [--rounds 20]

Imports this checkout's package (the `src/` next to this script's directory)
and the one of checkout DIR (`DIR/src`) side by side in one interpreter,
under two module names, and builds the same inputs for each with its own
package. Every round then times one call of the layer on both sides,
alternating round by round which side runs first, in wall time
(`perf_counter`) and process CPU time (`process_time`). A layer compared
this way sees the same host drift on both sides, which separate
interpreters do not.

The layers, on criterion 9's solitary wave at the transit size (N = 512,
mu = 0.1, eps = sqrt(mu), amplitude 0.2, the internal step period/2048):

* `mol_solve` -- `--steps` output steps (default 16) of the direct solve;
* `nonlinear_F` -- `--calls` (default 20) tendency evaluations on the wave;
* `invert_bigT` -- `--calls` elliptic solves (PCG at this band) of the
  wave's velocity at its depth, a lone member;
* `direct_solve` -- `--calls` lone elliptic solves on the flagship's band
  instead (N = 128, dealias fraction 0.0625: 9 modes, flat, solved
  directly), of a random velocity at the depth of a random elevation of
  size 0.1 (seed 0);
* `solve_linearized` -- the linearized system along the first `--steps`
  steps of the wave's own `mol_solve` trajectory, from a perturbation of
  size 1e-3 of the wave.

and one layer over bathymetry, the only one that reaches the b != 0
operator branches:

* `bathymetry_F` -- `--calls` tendency evaluations on the inputs of the
  bathy2d benchmark workload (a 64^2 grid of side 2 pi, mu = 0.1,
  eps = sqrt(mu); bathymetry of amplitude 0.05 and decay 5 from seed 101,
  then V and zeta of amplitude 0.05 and decay 4 from seed 202).

It prints each side's median time per round, then the per-round ratios
this/against of wall and CPU time: median, quartiles, and the rounds this
checkout won (ratio below 1). BLAS thread pools are pinned to one thread
before numpy loads. The ratios resolve a layer below the host's drift; they
are not an end-to-end measurement (`perfbench/run.py` is).
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("mol_solve", "nonlinear_F", "invert_bigT", "direct_solve", "solve_linearized",
          "bathymetry_F")
TRANSIT_NODES = 512
TRANSIT_LENGTH = 40.0
TRANSIT_AMPLITUDE = 0.2


def load_package(name: str, src: Path):
    """Import the package under `src/nmshallow` as the module `name`; its
    relative imports resolve inside that name."""
    init = src / "nmshallow" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build(name: str, layer: str, args: argparse.Namespace):
    """The zero-argument call that one round times, built with package `name`."""
    fs = importlib.import_module(f"{name}.fourier_scale")
    gn = importlib.import_module(f"{name}.green_naghdi")
    ivp = importlib.import_module(f"{name}.linear_ivp")
    ref = importlib.import_module(f"{name}.reference")
    if layer == "bathymetry_F":
        grid = fs.GridSpec(dimension=2, nodes_per_axis=64, domain_length=2 * math.pi)
        bathymetry = fs.random_field(grid, 1, np.random.default_rng(101), amplitude=0.05,
                                     decay=5.0)
        params = gn.PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=bathymetry)
        rng = np.random.default_rng(202)
        state = gn.GNState(V=fs.random_field(grid, 2, rng, amplitude=0.05, decay=4.0),
                           zeta=fs.random_field(grid, 1, rng, amplitude=0.05, decay=4.0))

        def bathymetry_tendency():
            for _ in range(args.calls):
                gn.nonlinear_F(params, state)
        return bathymetry_tendency
    grid = fs.GridSpec(dimension=1, nodes_per_axis=TRANSIT_NODES, domain_length=TRANSIT_LENGTH)
    params = gn.PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=fs.zero_field(grid))
    wave = ref.serre_solitary_wave(params, TRANSIT_AMPLITUDE)
    speed = math.sqrt(1.0 + params.eps * TRANSIT_AMPLITUDE) / params.eps
    dt = TRANSIT_LENGTH / speed / 2048
    T = args.steps * dt

    if layer == "mol_solve":
        return lambda: ref.mol_solve(params, wave, T, dt)
    if layer == "nonlinear_F":
        def tendency():
            for _ in range(args.calls):
                gn.nonlinear_F(params, wave)
        return tendency
    if layer == "invert_bigT":
        hg = gn.depth_grid(params, wave.zeta)

        def solves():
            for _ in range(args.calls):
                gn.invert_bigT(params, hg, wave.V)
        return solves
    if layer == "direct_solve":
        flagship = fs.GridSpec(dimension=1, nodes_per_axis=128, domain_length=2 * math.pi,
                               dealias_fraction=0.0625)
        flat = gn.PhysicalParams(mu=0.1, eps=math.sqrt(0.1), b=fs.zero_field(flagship))
        rng = np.random.default_rng(0)
        hg = gn.depth_grid(flat, fs.random_field(flagship, 1, rng, amplitude=0.1, decay=2.0))
        V = fs.random_field(flagship, 1, rng, amplitude=1.0, decay=1.0)

        def direct():
            for _ in range(args.calls):
                gn.invert_bigT(flat, hg, V)
        return direct
    # solve_linearized
    uref = ref.mol_solve(params, wave, T, dt)
    coeffs = gn.build_linearized_coeffs(params, uref)
    start = gn.GNState.from_packed(wave.packed() * 1e-3)
    problem = ivp.IVPData(initial=start, horizon=T, dt=dt)
    return lambda: ivp.solve_linearized(params, coeffs, problem)


def _timed(call) -> tuple[float, float]:
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    call()
    return time.perf_counter() - w0, time.process_time() - c0


def _spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="root of the other checkout")
    ap.add_argument("--layer", required=True, choices=LAYERS)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--steps", type=int, default=16,
                    help="output steps (mol_solve, solve_linearized)")
    ap.add_argument("--calls", type=int, default=20,
                    help="calls per round (nonlinear_F, invert_bigT, direct_solve, "
                         "bathymetry_F)")
    args = ap.parse_args(argv)
    if args.rounds < 2 or args.steps < 1 or args.calls < 1:
        ap.error("--rounds must be at least 2; --steps and --calls at least 1")

    sides = {}
    for label, name, src in (
        ("this", "nmshallow_this", ROOT / "src"),
        ("against", "nmshallow_against", args.against.resolve() / "src"),
    ):
        load_package(name, src)
        sides[label] = build(name, args.layer, args)
        sides[label]()  # warm-up: caches, first-call imports
    times = {label: [] for label in sides}
    for r in range(args.rounds):
        order = ("this", "against") if r % 2 == 0 else ("against", "this")
        for label in order:
            times[label].append(_timed(sides[label]))

    print(f"layer {args.layer}, {args.rounds} rounds, against {args.against}")
    for label in sides:
        wall = statistics.median(t[0] for t in times[label])
        cpu = statistics.median(t[1] for t in times[label])
        print(f"  {label:8s} median per round: wall {wall:.4f} s, cpu {cpu:.4f} s")
    for k, kind in enumerate(("wall", "cpu")):
        ratios = [a[k] / b[k] for a, b in zip(times["this"], times["against"])]
        wins = sum(ratio < 1.0 for ratio in ratios)
        print(f"  {kind} ratio this/against: {_spread(ratios)}, won {wins} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
