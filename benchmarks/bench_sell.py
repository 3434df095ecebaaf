"""Vectorised SELL-C construction vs the retained per-row loop.

Every adapter and system cell of the fast model converts its CSR
matrix to SELL-C (C = 32) before it streams the column indices, so the
conversion rides on every sweep.  Gate: on ``G3_circuit`` at 60k nnz
(about 12k rows, one loop iteration per row in the reference) the
whole-array :meth:`repro.sparse.sell.SellMatrix.from_csr` must run
>= 10x faster than the seed loop kept in :mod:`repro.axipack.reference`,
with bit-identical output.

The two sides are timed in paired, interleaved repetitions
(reference, vectorised, reference, vectorised, ...) and the gate reads
the median of the per-pair ratios, so a slow stretch on a shared
2-core runner hits both sides of a pair alike.  The floor sits well
under the measured ratio (52-61x per pair on a 2-core x86 host) for
the same reason.
"""

import statistics
import time

from repro.axipack.reference import sell_from_csr_reference
from repro.sparse.sell import SellMatrix
from repro.sparse.suite import get_matrix

from _bench_util import record

MATRIX = "G3_circuit"
MAX_NNZ = 60_000
CHUNK = 32
#: interleaved (reference, vectorised) pairs.
PAIRS = 9
#: required median speedup of the vectorised construction.
MIN_SPEEDUP = 10.0


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_bench_sell_from_csr_speedup(benchmark):
    """>= 10x median paired speedup over the loop, bit-exact results."""
    csr = get_matrix(MATRIX, MAX_NNZ)
    vec = SellMatrix.from_csr(csr, CHUNK)
    ref = sell_from_csr_reference(csr, CHUNK)
    assert vec.col_idx.tobytes() == ref.col_idx.tobytes()
    assert vec.val.tobytes() == ref.val.tobytes()
    assert (vec.slice_ptr == ref.slice_ptr).all()

    def paired():
        ref_s, vec_s = [], []
        for _ in range(PAIRS):
            ref_s.append(_seconds(sell_from_csr_reference, csr, CHUNK))
            vec_s.append(_seconds(SellMatrix.from_csr, csr, CHUNK))
        return ref_s, vec_s

    ref_s, vec_s = benchmark.pedantic(paired, rounds=1, iterations=1)
    ratios = [r / v for r, v in zip(ref_s, vec_s)]
    speedup = statistics.median(ratios)

    record(
        benchmark,
        "sell_construction_speedup",
        {
            "rows": [
                {
                    "pair": i,
                    "reference_s": round(r, 5),
                    "vectorised_s": round(v, 5),
                    "speedup": round(r / v, 1),
                }
                for i, (r, v) in enumerate(zip(ref_s, vec_s))
            ],
            "summary": {
                "matrix": MATRIX,
                "nrows": csr.nrows,
                "nnz": csr.nnz,
                "reference_median_s": round(statistics.median(ref_s), 5),
                "vectorised_median_s": round(statistics.median(vec_s), 5),
                "speedup_median": round(speedup, 1),
                "speedup_min": round(min(ratios), 1),
            },
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"only {speedup:.1f}x over the per-row loop (gate {MIN_SPEEDUP}x)"
    )
