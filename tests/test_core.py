import numpy as np
import pytest
from hypothesis import given, strategies as st

from submatch.core import (
    UNMATCHED, ArrayMatching, BipartiteInstance, EmptyMatching,
    MaterializedCost, OverlayMatching, ScaledCost, SetMembership,
    ThresholdedCostView, ZeroPotential, read_instance, v0, v1,
    write_instance,
)
from submatch.template import StepAMembership, Step2Potential


@given(st.integers(0, 10 ** 9), st.sampled_from([0, 1]))
def test_vertex_codec_roundtrip(i, s):
    u = v0(i) if s == 0 else v1(i)
    assert u & 1 == s
    assert u >> 1 == i


def test_query_counter_counts_every_access():
    inst = BipartiteInstance.from_matrix(np.arange(9.0).reshape(3, 3))
    assert inst.query_count == 0
    inst.cost.pairs([0], [0])
    inst.cost.pairs([0], [0])
    assert inst.query_count == 2
    inst.cost.block(np.arange(3), np.arange(3))
    assert inst.query_count == 2 + 9
    inst.cost.pairs([0, 1], [2, 2])
    assert inst.query_count == 13
    inst.reset_query_count()
    assert inst.query_count == 0


def test_peek_is_uncounted():
    inst = BipartiteInstance.from_matrix(np.ones((4, 4)))
    inst.cost.peek_dense()
    inst.cost.peek_pairs([0], [1])
    assert inst.query_count == 0


def test_adapters_count_once_at_root():
    inst = BipartiteInstance.from_matrix(np.full((5, 5), 2.0))
    stacked = ScaledCost(ThresholdedCostView(inst.cost, 10.0), 3.0)
    vals = stacked.block(np.arange(5), np.arange(5))
    assert np.all(vals == 6.0)
    assert inst.query_count == 25  # one count despite two adapters


def test_threshold_view_masks_with_inf():
    inst = BipartiteInstance.from_matrix(np.array([[1.0, 5.0], [2.0, 3.0]]))
    view = ThresholdedCostView(inst.cost, 2.5)
    out = view.block(np.arange(2), np.arange(2))
    assert out[0, 0] == 1.0 and out[1, 0] == 2.0
    assert np.isinf(out[0, 1]) and np.isinf(out[1, 1])


def test_threshold_view_rejects_nan_reads():
    inst = BipartiteInstance.from_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]))
    view = ThresholdedCostView(inst.cost, 2.5)
    assert view.pairs([0, 1], [0, 1])[0] == 1.0  # NaN-free reads still answer
    with pytest.raises(ValueError, match="NaN"):
        view.pairs([1, 0], [0, 1])
    with pytest.raises(ValueError, match="NaN"):
        view.block(np.arange(2), np.arange(2))
    assert inst.query_count == 2 + 2 + 4  # no read beyond the ones asked for


def test_threshold_view_rejects_nan_limit():
    # a NaN limit would compare false everywhere and drop every edge
    inst = BipartiteInstance.from_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="limit must not be NaN, not nan"):
        ThresholdedCostView(inst.cost, float("nan"))
    assert inst.query_count == 0


def test_materialized_cost_counts_its_matrix_once():
    dense = np.random.default_rng(2).random((6, 6))
    inst = BipartiteInstance.from_matrix(dense)
    stacked = MaterializedCost(ScaledCost(inst.cost, 3.0))
    assert inst.query_count == 36
    assert stacked.counter is inst.cost.counter
    rows, cols = np.array([4, 0, 4]), np.array([5, 1])
    assert np.array_equal(stacked.block(rows, cols), dense[np.ix_(rows, cols)] * 3.0)
    assert np.array_equal(stacked.pairs([3, 3], [0, 5]), dense[[3, 3], [0, 5]] * 3.0)
    whole = stacked.dense()
    assert np.array_equal(whole, dense * 3.0)
    assert not whole.flags.writeable  # the stored matrix is shared, not copied
    assert inst.query_count == 36


def test_pairs_matches_block_for_matrix_and_function():
    rng = np.random.default_rng(0)
    m = rng.random((8, 8))
    inst = BipartiteInstance.from_matrix(m)
    is_, js = rng.integers(0, 8, 20), rng.integers(0, 8, 20)
    assert np.allclose(inst.cost.pairs(is_, js), m[is_, js])


@pytest.mark.parametrize("binary", [False, True])
def test_instance_file_roundtrip(tmp_path, binary):
    rng = np.random.default_rng(3)
    m = rng.random((7, 7))
    path = tmp_path / ("inst.bin" if binary else "inst.txt")
    write_instance(m, path, binary=binary)
    back = read_instance(path)
    assert back.n == 7
    assert np.allclose(back.cost.peek_dense(), m)


@pytest.mark.parametrize("keep, message", [
    (-8, "n=4 needs 128 bytes of costs, found 120"),
    (9, "the header ends before n"),
], ids=["short-payload", "short-header"])
def test_binary_file_cut_short_is_malformed(tmp_path, keep, message):
    path = tmp_path / "x.bin"
    write_instance(np.ones((4, 4)), path, binary=True)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match=f"malformed instance file: {message}"):
        read_instance(path)


@pytest.mark.parametrize("body, message", [
    ("4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n", "expected 4 rows of costs, found 3"),
    ("4\n1 2 3 4\n1 2 3\n1 2 3 4\n1 2 3 4\n", "row 1 has 3 costs, expected 4"),
    ("2\n1 2\n1 2\n1 2\n", "more than 2 rows of costs"),
    ("0\n", "the size must be positive, not 0"),
    ("two\n1 2\n1 2\n", "the header must be the integer n, not 'two'"),
    ("2\n1 2\n1 x\n", "row 1: could not convert string to float: 'x'"),
], ids=["missing-row", "short-row", "extra-row", "zero-size", "non-integer-header",
        "non-numeric-cost"])
def test_text_file_with_wrong_row_count_or_length_is_malformed(tmp_path, body, message):
    path = tmp_path / "x.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"malformed instance file: {message}"):
        read_instance(path)


def test_binary_format_layout(tmp_path):
    m = np.array([[1.5, 2.0], [0.25, 3.0]])
    path = tmp_path / "x.bin"
    write_instance(m, path, binary=True)
    raw = path.read_bytes()
    assert raw[:5] == b"SUBM1"
    assert int.from_bytes(raw[5:13], "little") == 2
    assert np.frombuffer(raw[13:], dtype="<f8").tolist() == [1.5, 2.0, 0.25, 3.0]


# -- matching oracles --------------------------------------------------------

def test_matching_symmetry_and_bipartiteness():
    m = ArrayMatching.from_pairs(4, [(0, 2), (3, 1)])
    for i, j in [(0, 2), (3, 1)]:
        assert m.mate(v0(i)) == v1(j)
        assert m.mate(v1(j)) == v0(i)
    assert m.mate(v0(1)) is None
    assert m.size() == 2
    assert sorted(m.edges()) == [(0, 2), (3, 1)]


def test_overlay_matching_patches_base():
    base = ArrayMatching.from_pairs(4, [(0, 0), (1, 1)])
    # augment along the length-3 path v0(2) - v1(1) - v0(1) - v1(2)
    overlay = OverlayMatching(base, {
        v0(2): v1(1), v1(1): v0(2), v0(1): v1(2), v1(2): v0(1)})
    assert overlay.mate(v0(0)) == v1(0)      # untouched
    assert overlay.mate(v0(2)) == v1(1)
    assert overlay.mate(v1(1)) == v0(2)
    assert overlay.mate(v0(1)) == v1(2)
    assert overlay.base is base              # reference, not a copy
    # determinism through the cache
    assert overlay.mate(v0(2)) == v1(1)


def test_overlay_can_free_a_vertex():
    base = ArrayMatching.from_pairs(2, [(0, 0)])
    overlay = OverlayMatching(base, {v0(0): UNMATCHED, v1(0): UNMATCHED})
    assert overlay.mate(v0(0)) is None
    assert overlay.mate(v1(0)) is None


def test_empty_matching():
    m = EmptyMatching(3)
    assert all(m.mate(v0(i)) is None for i in range(3))
    assert m.size() == 0


# -- potentials and membership ------------------------------------------------

def test_zero_potential_and_membership():
    phi = ZeroPotential(5)
    assert phi.eval(v0(2)) == 0 and phi.eval(v1(4)) == 0
    assert phi.range_bound == 1
    mem = SetMembership(5, [v0(1), v1(3)])
    assert mem.contains(v0(1)) and mem.contains(v1(3))
    assert not mem.contains(v0(3))


class CountingOverlay(OverlayMatching):
    seen: list

    def _mates_impl(self, us):
        self.seen += us.tolist()
        return super()._mates_impl(us)


class CountingStep2Potential(Step2Potential):
    seen: list

    def _eval_missing(self, us):
        self.seen += us.tolist()
        return super()._eval_missing(us)


class CountingStepAMembership(StepAMembership):
    seen: list

    def _contains_missing(self, us):
        self.seen += us.tolist()
        return super()._contains_missing(us)


def test_layered_oracles_compute_each_vertex_once():
    n = 6
    base = ArrayMatching.from_pairs(n, [(0, 0), (1, 1), (2, 3)])
    members = SetMembership(n, [v0(1), v1(2), v0(5), v1(3)])
    cases = [
        (CountingOverlay(base, {v0(4): v1(5), v1(5): v0(4)}), "mates",
         OverlayMatching._mates_impl),
        (CountingStep2Potential(ZeroPotential(n), members, 3), "eval_many",
         Step2Potential._eval_missing),
        (CountingStepAMembership(members), "contains_many",
         StepAMembership._contains_missing),
    ]
    batches = [[3, 0, 3, 7, 0], [7, 8, 3, 11, 11], [11, 11], list(range(2 * n)), [8, 0]]
    for oracle, query, hook in cases:
        oracle.seen = []
        for batch in batches:
            us = np.array(batch, dtype=np.int64)
            assert getattr(oracle, query)(us).tolist() == hook(oracle, us).tolist()
        assert sorted(oracle.seen) == list(range(2 * n))  # each id once


