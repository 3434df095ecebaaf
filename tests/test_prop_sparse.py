"""Property-based tests: sparse format invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axipack.reference import sell_from_csr_reference
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix


@st.composite
def coo_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=80))
    ncols = draw(st.integers(min_value=1, max_value=80))
    nnz = draw(st.integers(min_value=0, max_value=150))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CooMatrix(nrows, ncols, rows, cols, vals)


@given(coo_matrices())
@settings(max_examples=150, deadline=None)
def test_csr_equals_dense_semantics(coo):
    csr = coo.to_csr()
    assert np.allclose(csr.to_dense(), coo.to_dense())


@given(coo_matrices())
@settings(max_examples=100, deadline=None)
def test_spmv_matches_dense_matvec(coo):
    csr = coo.to_csr()
    x = np.linspace(-1, 1, csr.ncols)
    assert np.allclose(csr.spmv(x), csr.to_dense() @ x, atol=1e-9)


@given(coo_matrices(), st.sampled_from([2, 4, 8, 32]))
@settings(max_examples=100, deadline=None)
def test_sell_roundtrip_and_spmv(coo, chunk):
    csr = coo.to_csr()
    sell = csr.to_sell(chunk)
    x = np.linspace(-1, 1, csr.ncols)
    assert np.allclose(sell.spmv(x), csr.spmv(x), atol=1e-9)
    # Padding never shrinks below the true nonzero count.
    assert sell.padded_nnz >= csr.nnz
    back = sell.to_csr()
    assert np.allclose(back.to_dense(), csr.to_dense(), atol=1e-12)


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_row_ptr_monotone_and_consistent(coo):
    csr = coo.to_csr()
    assert csr.row_ptr[0] == 0
    assert csr.row_ptr[-1] == csr.nnz
    assert (np.diff(csr.row_ptr) >= 0).all()
    assert (csr.row_lengths().sum()) == csr.nnz


@st.composite
def sparse_row_csr(draw):
    """CSR matrices with many empty rows and a band of forced-empty rows
    long enough to blank whole slices; ``nrows`` is rarely a multiple
    of the chunk."""
    nrows = draw(st.integers(min_value=1, max_value=160))
    ncols = draw(st.integers(min_value=1, max_value=60))
    lengths = draw(
        st.lists(
            st.integers(0, 9) | st.just(0), min_size=nrows, max_size=nrows
        )
    )
    band_start = draw(st.integers(0, nrows))
    band_len = draw(st.integers(0, 80))
    lengths = [
        0 if band_start <= r < band_start + band_len else n
        for r, n in enumerate(lengths)
    ]
    nnz = sum(lengths)
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    row_ptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    return CsrMatrix(nrows, ncols, row_ptr, cols, vals)


@given(sparse_row_csr(), st.sampled_from([1, 2, 7, 32, 64]))
@settings(max_examples=200, deadline=None)
def test_sell_from_csr_matches_reference_loop(csr, chunk):
    """The vectorised construction reproduces the per-row loop byte for
    byte, padding layout included (the adapter's index stream)."""
    sell = csr.to_sell(chunk)
    ref = sell_from_csr_reference(csr, chunk)
    assert sell.col_idx.dtype == ref.col_idx.dtype
    assert sell.val.dtype == ref.val.dtype
    assert sell.col_idx.tobytes() == ref.col_idx.tobytes()
    assert sell.val.tobytes() == ref.val.tobytes()
    assert np.array_equal(sell.slice_ptr, ref.slice_ptr)
    assert np.array_equal(sell.slice_widths, ref.slice_widths)
    assert sell.true_nnz == ref.true_nnz
