"""Host probes and the run statistics shared by every workload.

The reference host is a shared 2-core VM whose speed moves in bursts of
roughly ten seconds (a fixed single-thread GEMM slows by 20-40% during
one, with zero reported steal).  A plain median over the ops of a
15-second run therefore jumps whenever a burst covers more than half the
run.  The gated timings are instead *quiet quartiles*: the measured phase
is cut into equal chunks, each chunk yields its own figure, and the run
reports the quartile of the chunk figures on the good side (25th
percentile for lower-is-better, 75th for higher-is-better).  A burst has
to cover three quarters of the run before it moves that number; a real
slowdown of the program moves every chunk.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def quiet(values, better: str = "lower") -> float:
    """The good-side quartile of per-chunk figures (see module docstring)."""
    return float(np.percentile(values, 25 if better == "lower" else 75))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def chunk_bounds(n_ops: int, n_chunks: int = 10) -> list[tuple[int, int]]:
    """``[start, stop)`` op ranges of at most ``n_chunks`` near-equal chunks."""
    edges = np.linspace(0, n_ops, min(n_chunks, n_ops) + 1).astype(int)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


# -- /proc readers -------------------------------------------------------
def cpu_seconds(pid: int | None = None) -> float:
    """user+sys CPU of this process (all threads) or of ``pid``."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as handle:
        # comm may contain spaces; the fields after the closing paren are fixed.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set in MiB: ``ru_maxrss`` of self, ``VmHWM`` of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_ticks() -> tuple[int, int]:
    """``(total, steal)`` jiffies summed over all CPUs from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return sum(fields), fields[7]


# -- calibration ---------------------------------------------------------
def calibrate(repeats: int = 7) -> float:
    """ms for a fixed GEMM + 32 MiB stream kernel (median of ``repeats``).

    Says whether the *host* was slow around a measured phase; never gated.
    """
    gemm = np.random.default_rng(0).standard_normal((256, 256))
    stream = np.zeros(4 * 1024 * 1024)  # 32 MiB of float64
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        gemm @ gemm
        np.add(stream, 1.0, out=stream)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e3
