"""The array-backed FDET result: lazy blocks, array reads, k bounds, pickling.

An :class:`FdetResult` keeps one packed node bitset per block and builds
:class:`Block` objects only when read. Every read must equal the eager
formulas the result used when it held a tuple of blocks — restated here
as the reference.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import FraudBlockSpec, inject_fraud_blocks, uniform_bipartite
from repro.errors import DetectionError
from repro.fdet import Block, Fdet, FdetConfig, FdetResult, PeelEngine, TruncationRule
from repro.fdet import batched
from repro.fdet._native import native_available
from repro.sampling import RandomEdgeSampler, resolve_rng

INT64 = np.iinfo(np.int64)
#: repeated, negative and extreme labels: a peeled graph's labels need not be unique
_LABELS = st.one_of(
    st.sampled_from([INT64.min, INT64.min + 1, -7, -1, 0, 1, 3, INT64.max - 1, INT64.max]),
    st.integers(INT64.min, INT64.max),
)


def _pack(masks: list[np.ndarray], n_nodes: int) -> np.ndarray:
    rows = [np.packbits(mask, bitorder="little") for mask in masks]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), (n_nodes + 7) // 8)


@st.composite
def results(draw):
    """A result over random node labels and block masks, with its masks."""
    n_users = draw(st.integers(0, 11))
    n_merchants = draw(st.integers(0, 11))
    users = np.array(draw(st.lists(_LABELS, min_size=n_users, max_size=n_users)), dtype=np.int64)
    merchants = np.array(
        draw(st.lists(_LABELS, min_size=n_merchants, max_size=n_merchants)), dtype=np.int64
    )
    n_nodes = n_users + n_merchants
    row = st.one_of(
        st.just([False] * n_nodes),  # an empty row
        st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes),
    )
    masks = [np.array(mask, dtype=bool) for mask in draw(st.lists(row, max_size=8))]
    n_blocks = len(masks)
    densities = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
            min_size=n_blocks,
            max_size=n_blocks,
        )
    )
    edge_counts = draw(st.lists(st.integers(0, 10**6), min_size=n_blocks, max_size=n_blocks))
    result = FdetResult(
        user_labels=users,
        merchant_labels=merchants,
        block_rows=_pack(masks, n_nodes),
        densities=np.array(densities, dtype=np.float64),
        edge_counts=np.array(edge_counts, dtype=np.int64),
        k_hat=draw(st.integers(0, n_blocks)),
    )
    return result, masks


def _eager_blocks(result: FdetResult, masks: list[np.ndarray]) -> tuple[Block, ...]:
    n_users = result.user_labels.size
    return tuple(
        Block(
            index=index,
            user_labels=np.sort(result.user_labels[mask[:n_users]]),
            merchant_labels=np.sort(result.merchant_labels[mask[n_users:]]),
            density=float(result.densities[index]),
            n_edges=int(result.edge_counts[index]),
        )
        for index, mask in enumerate(masks)
    )


def _eager_union(blocks: tuple[Block, ...], k_hat: int, attribute: str, k: int | None):
    limit = k_hat if k is None else min(k, len(blocks))
    parts = [getattr(block, attribute) for block in blocks[:limit]]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def _eager_total(blocks: tuple[Block, ...], k_hat: int, k: int | None) -> float:
    limit = k_hat if k is None else min(k, len(blocks))
    return float(sum(block.density for block in blocks[:limit]))


def _same_array(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.dtype == expected.dtype and np.array_equal(got, expected)


def _assert_same_blocks(got: tuple[Block, ...], expected: tuple[Block, ...]) -> None:
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.index == e.index
        assert np.float64(g.density).tobytes() == np.float64(e.density).tobytes()
        assert g.n_edges == e.n_edges
        assert _same_array(g.user_labels, e.user_labels)
        assert _same_array(g.merchant_labels, e.merchant_labels)


@settings(max_examples=150, deadline=None)
@given(results())
def test_lazy_reads_match_the_eager_formulas(drawn):
    result, masks = drawn
    expected = _eager_blocks(result, masks)
    k_hat = result.k_hat
    n_blocks = len(masks)
    assert result.n_blocks == n_blocks
    assert _same_array(
        result.densities, np.array([b.density for b in expected], dtype=np.float64)
    )
    for k in (None, 0, 1, n_blocks, n_blocks + 3):
        for attribute, read in (
            ("user_labels", result.detected_users),
            ("merchant_labels", result.detected_merchants),
        ):
            assert _same_array(read(k), _eager_union(expected, k_hat, attribute, k))
        total = result.total_density(k)
        assert type(total) is float
        assert np.float64(total).tobytes() == np.float64(_eager_total(expected, k_hat, k)).tobytes()
    # the array reads above built no block; the first block read builds them once
    assert "all_blocks" not in vars(result)
    _assert_same_blocks(result.all_blocks, expected)
    _assert_same_blocks(result.blocks, expected[:k_hat])
    assert result.all_blocks is result.all_blocks


@settings(max_examples=40, deadline=None)
@given(results())
def test_pickle_ships_arrays_not_blocks(drawn):
    result, _ = drawn
    before = pickle.dumps(result)
    assert b"Block" not in before
    expected = result.all_blocks
    after = pickle.dumps(result)
    assert b"Block" not in after
    for payload in (before, after):
        loaded = pickle.loads(payload)
        assert "all_blocks" not in vars(loaded)
        assert loaded.k_hat == result.k_hat
        assert not loaded.densities.flags.writeable
        _assert_same_blocks(loaded.all_blocks, expected)
        assert _same_array(loaded.detected_users(), result.detected_users())


class TestBounds:
    """``k`` and ``k̂`` must lie inside the result's block range."""

    @pytest.fixture
    def three_blocks(self):
        masks = [np.array(m, dtype=bool) for m in ([1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1])]
        return FdetResult(
            user_labels=np.array([10, 11], dtype=np.int64),
            merchant_labels=np.array([20, 21], dtype=np.int64),
            block_rows=_pack(masks, 4),
            densities=np.array([3.0, 2.0, 1.0]),
            edge_counts=np.array([1, 1, 4], dtype=np.int64),
            k_hat=2,
        )

    def test_negative_k_rejected(self, three_blocks):
        for read in (
            three_blocks.detected_users,
            three_blocks.detected_merchants,
            three_blocks.total_density,
            three_blocks.node_mask,
        ):
            with pytest.raises(DetectionError):
                read(-1)

    def test_zero_k_selects_nothing(self, three_blocks):
        for read in (three_blocks.detected_users, three_blocks.detected_merchants):
            got = read(0)
            assert got.dtype == np.int64 and got.size == 0
        assert three_blocks.total_density(0) == 0.0
        assert not three_blocks.node_mask(0).any()

    def test_oversized_k_clips(self, three_blocks):
        assert three_blocks.detected_users(99).tolist() == [10, 11]
        assert three_blocks.detected_merchants(99).tolist() == [20, 21]
        assert three_blocks.total_density(99) == 6.0
        assert three_blocks.detected_users().tolist() == [10, 11]
        assert three_blocks.total_density() == 5.0

    def test_densities_read_only(self, three_blocks):
        with pytest.raises(ValueError):
            three_blocks.densities[0] = 0.0

    @pytest.mark.parametrize("k_hat", [-1, 4])
    def test_out_of_range_k_hat_rejected(self, three_blocks, k_hat):
        with pytest.raises(DetectionError):
            FdetResult(
                user_labels=three_blocks.user_labels,
                merchant_labels=three_blocks.merchant_labels,
                block_rows=three_blocks.block_rows,
                densities=np.array([3.0, 2.0, 1.0]),
                edge_counts=three_blocks.edge_counts,
                k_hat=k_hat,
            )


class _BrokenRule(TruncationRule):
    """Breaks the rule contract: ``k̂`` is -1, or one more than the blocks."""

    def __init__(self, too_many: bool) -> None:
        self.too_many = too_many

    def truncate(self, densities):
        return len(densities) + 1 if self.too_many else -1


@pytest.fixture(scope="module")
def planted():
    background = uniform_bipartite(150, 90, 300, rng=np.random.default_rng(4))
    spec = FraudBlockSpec(n_users=12, n_merchants=6, density=0.9)
    return inject_fraud_blocks(background, [spec, spec], rng=np.random.default_rng(5)).graph


@pytest.mark.parametrize("engine", PeelEngine.ALL)
@pytest.mark.parametrize("too_many", [False, True])
def test_detect_rejects_k_hat_outside_the_blocks(planted, engine, too_many):
    config = FdetConfig(max_blocks=5, truncation=_BrokenRule(too_many), engine=engine)
    with pytest.raises(DetectionError):
        Fdet(config).detect(planted)


@pytest.mark.skipif(not native_available(), reason="native kernel unavailable (no C compiler)")
@pytest.mark.parametrize("too_many", [False, True])
def test_batch_rejects_k_hat_outside_the_blocks(planted, too_many):
    config = FdetConfig(max_blocks=5, truncation=_BrokenRule(too_many))
    plans = RandomEdgeSampler(0.5).plan_many(planted, 3, resolve_rng(0))
    with pytest.raises(DetectionError):
        batched.detect_many(planted, plans, config)


@pytest.mark.parametrize("engine", PeelEngine.ALL)
def test_detected_results_pickle_without_blocks(planted, engine):
    result = Fdet(FdetConfig(max_blocks=5, engine=engine)).detect(planted)
    assert result.n_blocks >= 2
    assert b"Block" not in pickle.dumps(result)
    blocks = result.all_blocks
    loaded = pickle.loads(pickle.dumps(result))
    assert b"Block" not in pickle.dumps(result)
    _assert_same_blocks(loaded.all_blocks, blocks)
