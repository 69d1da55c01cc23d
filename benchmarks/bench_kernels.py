"""Kernel-layer microbenchmarks — emits a ``BENCH_kernels.json`` perf record.

Times the kernels of :mod:`repro.core.kernels` against frozen copies of
the seed implementations they replaced:

- ``ccd_refine``      — a full CCD refine (default n=20k, d=512, k=128,
  ``t`` sweeps): seed ``np.outer`` rank-1 sweeps over residuals the
  baseline builds for itself vs the residual-free coefficient-space sweep
  in Alg. 4's order (B=1) and in block Gauss–Seidel order (B>1, serial
  and parallel).  The B=1 objective must agree with the frozen seed sweep
  to 1e-9 relative (same update order, re-associated arithmetic), and a
  full run must keep B=1 at >= 5x the seed sweep.
- ``propagation``     — the Eq. (6) recurrence: per-hop allocation vs the
  row-blocked ping-pong kernel at 1 and 2 threads, which must return the
  allocating loop's bits (``array_equal``) at both.
- ``worker_pool``     — many small parallel phases: ephemeral
  ``ThreadPoolExecutor`` per call vs one persistent ``WorkerPool``.

Run as a script (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_kernels.py              # full record
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke      # CI-sized

The JSON record (schema ``bench_kernels/v3``, see ``docs/PERFORMANCE.md``)
stores the machine info (CPU count, BLAS thread setting, git SHA), the
parameters, per-kernel seconds, and speedups relative to the seed
implementation so future PRs have a regression trajectory.  BLAS is pinned
to one thread unless the environment says otherwise, so the only
parallelism timed is the program's own (as in ``benchmarks/perf``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:  # before numpy loads its BLAS
    os.environ.setdefault(_var, "1")

import numpy as np
import scipy

from repro.core.affinity import iterations_for_epsilon
from repro.core.greedy_init import InitState, random_init
from repro.core.kernels import propagate_recurrence
from repro.core.svd_ccd import cached_objective, refine
from repro.parallel.executor import run_blocks
from repro.parallel.pool import WorkerPool

_EPS_DENOM = 1e-300
#: Full runs must keep the B=1 GEMM sweep at least this much faster than
#: the frozen seed rank-1 sweep (measured ~50x at the default shape).
_EXACT_SPEEDUP_FLOOR = 5.0


# ---------------------------------------------------------------------------
# Frozen seed implementations (the baselines the kernels replaced)
# ---------------------------------------------------------------------------


def seed_ccd_sweep(
    state: InitState, s_forward: np.ndarray, s_backward: np.ndarray
) -> None:
    """The seed rank-1 ``np.outer`` CCD sweep, kept verbatim as baseline.

    ``s_forward`` / ``s_backward`` are the residual caches Alg. 4 carries
    (``X·Yᵀ − F′``); the caller builds them once, as the seed's init did.
    """
    x_forward, x_backward, y = state.x_forward, state.x_backward, state.y
    half = y.shape[1]
    for l in range(half):
        y_col = y[:, l]
        denom = float(y_col @ y_col)
        if denom <= _EPS_DENOM:
            continue
        mu_f = (s_forward @ y_col) / denom
        mu_b = (s_backward @ y_col) / denom
        x_forward[:, l] -= mu_f
        x_backward[:, l] -= mu_b
        s_forward -= np.outer(mu_f, y_col)
        s_backward -= np.outer(mu_b, y_col)
    for l in range(half):
        xf_col = x_forward[:, l]
        xb_col = x_backward[:, l]
        denom = float(xf_col @ xf_col + xb_col @ xb_col)
        if denom <= _EPS_DENOM:
            continue
        mu_y = (xf_col @ s_forward + xb_col @ s_backward) / denom
        y[:, l] -= mu_y
        s_forward -= np.outer(xf_col, mu_y)
        s_backward -= np.outer(xb_col, mu_y)


def seed_propagation(transition, p0: np.ndarray, alpha: float, t: int) -> np.ndarray:
    """The seed per-hop-allocating Eq. (6) recurrence, kept as baseline."""
    p = alpha * p0
    for _ in range(t):
        p = (1.0 - alpha) * np.asarray(transition @ p) + alpha * p0
    return p


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _clone(state: InitState) -> InitState:
    """Copy the factors; the affinities are read-only and shared."""
    return InitState(
        state.x_forward.copy(),
        state.x_backward.copy(),
        state.y.copy(),
        state.forward,
        state.backward,
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_ccd(n: int, d: int, k: int, sweeps: int, block_size: int, n_threads: int):
    """Time a full CCD refine under each kernel; verify objectives agree."""
    rng = np.random.default_rng(0)
    forward = rng.random((n, d))
    backward = rng.random((n, d))
    base = random_init(forward, backward, k=k, seed=1)

    results: dict[str, dict[str, float]] = {}

    state = _clone(base)
    s_forward = state.x_forward @ state.y.T - forward
    s_backward = state.x_backward @ state.y.T - backward

    def run_seed() -> None:
        for _ in range(sweeps):
            seed_ccd_sweep(state, s_forward, s_backward)

    seed_seconds = _timed(run_seed)
    del s_forward, s_backward
    seed_objective = cached_objective(state)
    results["seed_rank1"] = {"seconds": seed_seconds, "objective": seed_objective}

    variants = {
        "kernel_exact": dict(block_size=1, n_threads=1),
        "kernel_exact_parallel": dict(block_size=1, n_threads=n_threads),
        "kernel_blocked": dict(block_size=block_size, n_threads=1),
        "kernel_blocked_parallel": dict(block_size=block_size, n_threads=n_threads),
    }
    for name, kwargs in variants.items():
        # Best of three on fresh clones: a cell is seconds long, the host's
        # slow bursts are longer, and the seed baseline above is one shot.
        seconds = float("inf")
        for _ in range(3):
            state = _clone(base)
            seconds = min(seconds, _timed(lambda: refine(state, sweeps, **kwargs)))
        results[name] = {
            "seconds": seconds,
            "objective": cached_objective(state),
            "speedup_vs_seed": seed_seconds / seconds if seconds > 0 else float("inf"),
            **{key: float(value) for key, value in kwargs.items()},
        }

    # Sanity: same update order as the frozen seed sweep, so the same
    # objective up to re-associated rounding.
    exact_obj = results["kernel_exact"]["objective"]
    assert abs(exact_obj - seed_objective) <= 1e-9 * abs(seed_objective), (
        exact_obj,
        seed_objective,
    )
    return results


def bench_propagation(n: int, d: int, t: int, alpha: float, density: float = 2e-3):
    """Time the Eq. (6) recurrence: allocating loop vs the row-blocked kernel."""
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    transition = sp.random(n, n, density=density, format="csr", random_state=0)
    p0 = rng.random((n, d))

    start = time.perf_counter()
    expected = seed_propagation(transition, p0, alpha, t)
    seed_seconds = time.perf_counter() - start
    results = {"seed_allocating": {"seconds": seed_seconds}}
    for name, n_threads in (("kernel_pingpong", 1), ("kernel_pingpong_parallel", 2)):
        with WorkerPool(n_threads) as pool:
            start = time.perf_counter()
            produced = propagate_recurrence(
                transition, p0.copy(), alpha, t, n_threads=n_threads, pool=pool
            )
            seconds = time.perf_counter() - start
        # Same arithmetic in the same order for every row, whichever span
        # and tile it falls in: the bits of the allocating loop.
        assert np.array_equal(produced, expected), name
        results[name] = {
            "seconds": seconds,
            "n_threads": float(n_threads),
            "speedup_vs_seed": seed_seconds / seconds if seconds > 0 else float("inf"),
        }
    return results


def bench_pool(n_calls: int, n_threads: int, work_size: int = 50_000):
    """Time many small parallel phases: ephemeral pools vs one WorkerPool."""
    data = np.random.default_rng(0).random(work_size)
    blocks = list(range(n_threads))

    def work(_: int, __: int) -> float:
        return float(data @ data)

    def ephemeral() -> None:
        for _ in range(n_calls):
            run_blocks(work, blocks, n_threads=n_threads)

    seed_seconds = _timed(ephemeral)

    def persistent() -> None:
        with WorkerPool(n_threads) as pool:
            for _ in range(n_calls):
                run_blocks(work, blocks, pool=pool)

    kernel_seconds = _timed(persistent)
    return {
        "seed_ephemeral_pools": {"seconds": seed_seconds, "calls": n_calls},
        "kernel_persistent_pool": {
            "seconds": kernel_seconds,
            "calls": n_calls,
            "speedup_vs_seed": seed_seconds / kernel_seconds
            if kernel_seconds > 0
            else float("inf"),
        },
    }


def _git_sha() -> str:
    """HEAD of the checkout this script lives in (``-dirty`` if modified)."""
    root = Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000, help="nodes")
    parser.add_argument("--d", type=int, default=512, help="attributes")
    parser.add_argument("--k", type=int, default=128, help="embedding budget")
    parser.add_argument(
        "--sweeps",
        type=int,
        default=None,
        help="CCD sweeps (default: t for epsilon=0.015, alpha=0.5)",
    )
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument(
        "--threads",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="threads for the parallel cells (default: min(4, cpus))",
    )
    parser.add_argument("--out", default="BENCH_kernels.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (n=2000, d=128, k=32, 2 sweeps)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.n, args.d, args.k = 2_000, 128, 32
        args.sweeps = args.sweeps or 2
        args.block_size = min(args.block_size, args.k // 2)
    sweeps = args.sweeps or iterations_for_epsilon(0.015, 0.5)

    record = {
        "meta": {
            "schema": "bench_kernels/v3",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "blas_threads": {var: os.environ[var] for var in _BLAS_THREAD_VARS},
            "git_sha": _git_sha(),
            "smoke": bool(args.smoke),
        },
        "params": {
            "n": args.n,
            "d": args.d,
            "k": args.k,
            "sweeps": sweeps,
            "block_size": args.block_size,
            "threads": args.threads,
        },
    }

    print(
        f"ccd_refine: n={args.n} d={args.d} k={args.k} sweeps={sweeps} "
        f"B={args.block_size} threads={args.threads}",
        flush=True,
    )
    record["ccd_refine"] = bench_ccd(
        args.n, args.d, args.k, sweeps, args.block_size, args.threads
    )
    print("propagation...", flush=True)
    record["propagation"] = bench_propagation(args.n, args.d, t=6, alpha=0.5)
    print("worker_pool...", flush=True)
    record["worker_pool"] = bench_pool(n_calls=50 if args.smoke else 200,
                                       n_threads=args.threads)

    # Floors are asserted before writing, so a failed run never clobbers
    # the committed record (the bench_serving / bench_http convention).
    if not args.smoke:
        exact_speedup = record["ccd_refine"]["kernel_exact"]["speedup_vs_seed"]
        assert exact_speedup >= _EXACT_SPEEDUP_FLOOR, (
            f"B=1 GEMM sweep only {exact_speedup:.1f}x the seed rank-1 sweep "
            f"(floor {_EXACT_SPEEDUP_FLOOR}x)"
        )

    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")

    for section in ("ccd_refine", "propagation", "worker_pool"):
        for name, row in record[section].items():
            speedup = row.get("speedup_vs_seed")
            suffix = f"  ({speedup:.2f}x vs seed)" if speedup else ""
            print(f"{section:12s} {name:24s} {row['seconds']:8.3f}s{suffix}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
