"""The reference kernel: a fixed piece of work that measures the machine's speed.

The benchmark runs on a shared machine whose speed flips between two levels
about 1.5x apart, within seconds, as other tenants load it, and stays mostly
at one level for minutes.  A run then falls mostly into one level, so no
statistic over the run's own passes can remove it.  Instead the benchmark
times this kernel in alternation with the workload and reports every time
scaled to the speed the kernel measured around it:

    normalized = measured * REFERENCE_UNIT_S / mean reference unit time

so a figure reads as seconds on a machine on which one reference unit takes
``REFERENCE_UNIT_S``.  The kernel mirrors the mix of the package's hot code,
written here and frozen so that no change to the package can move it: the
table-lookup enumeration of the weight spectrum (numpy gathers over int16
arrays, row-wise nonzero counts, bincount) and a pure-Python finite-field
loop like the one that builds generator matrices.  Its table of partial
codewords has 1.5 M int16 entries (3 MB, more than a core's 2 MB L2 cache),
like the workloads' own chunks; it is made anew for each block and freed
after it.  The kernel's peak, about 7 MB above the imported package, lies
below the peak of every workload, so it does not raise ``peak_rss_mb``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One unit took about this long on the 2-vCPU Xeon guest the baseline was
# recorded on; it only sets the scale of the normalized figures.
REFERENCE_UNIT_S = 0.04

_N = 1536


def _symbols(count: int, salt: int) -> np.ndarray:
    """Fixed pseudo-random GF(4) symbols (a multiplicative hash, no RNG state)."""
    x = np.arange(salt * count, (salt + 1) * count, dtype=np.int64)
    return ((x * 0x9E3779B1 >> 17) % 4).astype(np.int16)


_ADD = (np.arange(4)[:, None] ^ np.arange(4)[None, :]).astype(np.int16)  # GF(4) addition
_EXP = [1]
for _ in range(254):  # powers of a primitive element of GF(2^8), x^8 + x^4 + x^3 + x^2 + 1
    v = _EXP[-1] << 1
    _EXP.append(v ^ 0x11D if v & 0x100 else v)
_LOG = {v: i for i, v in enumerate(_EXP)}


def _python_part() -> int:
    acc = 0
    row = []
    for a in range(1, 256):
        la = _LOG[a]
        for b in range(1, 256):
            acc ^= _EXP[(la + _LOG[b]) % 255]
        row.append(acc)
    return sum(row)


def _kernel_inputs() -> tuple[np.ndarray, list[np.ndarray]]:
    """The partial-codeword table and the rows folded into it.

    Made anew for every block and dropped after it, so that the kernel holds
    no memory while the workload runs.
    """
    span = np.empty((1024, _N), dtype=np.int16)
    for salt, row in enumerate(span):
        row[:] = _symbols(_N, salt)
    return span, [_symbols(_N, salt) for salt in range(1024, 1027)]


def reference_unit(span: np.ndarray, offsets: list[np.ndarray]) -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = perf_counter()
    counts = np.zeros(_N + 1, dtype=np.int64)
    for offset in offsets:
        for half in (span[:512], span[512:]):
            block = _ADD[half, offset[None, :]]
            counts += np.bincount(np.count_nonzero(block, axis=1), minlength=_N + 1)
    _python_part()
    elapsed = perf_counter() - start
    if counts.sum() != len(offsets) * span.shape[0]:
        raise AssertionError("reference kernel lost rows")
    return elapsed


def reference_block(min_seconds: float, min_units: int = 3) -> list[float]:
    """Unit times of at least ``min_units`` units and ``min_seconds`` seconds."""
    span, offsets = _kernel_inputs()
    times = []
    end = perf_counter() + min_seconds
    while len(times) < min_units or perf_counter() < end:
        times.append(reference_unit(span, offsets))
    return times


def scale(*blocks: list[float]) -> float:
    """The factor that normalizes work timed between the given reference blocks.

    ``REFERENCE_UNIT_S`` over the mean time of all their units pooled, so a
    long block weighs more than a short one.  The mean, not the median: the
    work it scales is a sum over the same fast and slow stretches.
    """
    units = [t for block in blocks for t in block]
    return REFERENCE_UNIT_S * len(units) / sum(units)
