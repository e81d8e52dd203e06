import numpy as np
import pytest
from hypothesis import given, strategies as st

from submatch.core import (
    BINARY_MAGIC, ArrayMatching, BipartiteInstance, EmptyMatching, LevelCost,
    MaterializedCost, PotentialOracle, SetMembership, ZeroPotential,
    read_instance, v0, v1, write_instance,
)
from submatch.mcm import _flip_paths
from submatch.pipeline import RoundedCost


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
    # 2.0 is level 8 of the inner view, and 8 is level 2 of the outer one
    stacked = RoundedCost(RoundedCost(inst.cost, 0.5, 2.5), 0.5, 100.0)
    vals = stacked.block(np.arange(5), np.arange(5))
    assert np.all(vals == 2.0)
    assert inst.query_count == 25  # one count despite two adapters


def test_level_cost_readout_reads_real_pairs_only():
    # the readout of a padded level cost: a real pair reads its base cost,
    # and a pair that touches a dummy costs 0 without a read
    dense = np.random.default_rng(8).random((4, 4))
    inst = BipartiteInstance.from_matrix(dense)
    readout = LevelCost(inst.cost, 0.5, 0.5, 10, n=6).readout
    assert readout.n == 6 and readout.counter is inst.cost.counter
    whole = readout.dense()
    assert np.array_equal(whole[:4, :4], dense)  # above w too: no threshold
    assert np.all(whole[4:] == 0.0) and np.all(whole[:, 4:] == 0.0)
    assert inst.query_count == 16
    assert np.array_equal(readout.pairs([0, 5, 4, 3], [1, 2, 5, 3]),
                          [dense[0, 1], 0.0, 0.0, dense[3, 3]])
    assert inst.query_count == 18


def test_threshold_view_masks_with_inf():
    # the threshold lives in RoundedCost: a cost above w is a non-edge
    inst = BipartiteInstance.from_matrix(np.array([[1.0, 5.0], [2.0, 3.0]]))
    view = RoundedCost(inst.cost, 0.5, 2.5)
    out = view.pairs([0, 0, 1, 1], [0, 1, 0, 1])
    assert np.isfinite(out[0]) and np.isfinite(out[2])
    assert np.isinf(out[1]) and np.isinf(out[3])
    # a +inf cost stays a non-edge, whatever the threshold
    inst = BipartiteInstance.from_matrix(np.array([[1.0, np.inf], [2.0, 3.0]]))
    out = RoundedCost(inst.cost, 0.5, 1e300).block(np.arange(2), np.arange(2))
    assert np.isinf(out[0, 1]) and np.isfinite(out).sum() == 3


def test_threshold_view_rejects_nan_limit():
    # a NaN threshold would compare false everywhere and drop every edge
    inst = BipartiteInstance.from_matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="w must be positive, not nan"):
        RoundedCost(inst.cost, 0.5, float("nan"))
    assert inst.query_count == 0


def test_materialized_cost_counts_its_matrix_once():
    dense = np.random.default_rng(2).random((6, 6))
    inst = BipartiteInstance.from_matrix(dense)
    stacked = MaterializedCost(RoundedCost(inst.cost, 0.5, 1.0))
    levels = np.ceil(8.0 * dense) + 1.0  # 2 c / (gamma^2 w) is 8 c exactly
    assert inst.query_count == 36
    assert stacked.counter is inst.cost.counter
    rows, cols = np.array([4, 0, 4]), np.array([5, 1])
    assert np.array_equal(stacked.block(rows, cols), levels[np.ix_(rows, cols)])
    assert np.array_equal(stacked.pairs([3, 3], [0, 5]), levels[[3, 3], [0, 5]])
    whole = stacked.dense()
    assert np.array_equal(whole, levels)
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


def test_binary_file_of_size_zero_is_malformed(tmp_path):
    # the text path rejects a zero size with the same message
    path = tmp_path / "x.bin"
    path.write_bytes(BINARY_MAGIC + (0).to_bytes(8, "little"))
    with pytest.raises(ValueError,
                       match="malformed instance file: the size must be positive, not 0"):
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


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)],
                         ids=["non-square", "1-d", "3-d"])
def test_write_instance_rejects_a_matrix_that_is_not_square(tmp_path, shape, binary):
    # read_instance would reject the file, so none is written
    path = tmp_path / "x"
    with pytest.raises(ValueError, match="cost matrix must be square"):
        write_instance(np.ones(shape), path, binary=binary)
    assert not path.exists()


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


def test_flip_paths_copies_the_base_with_the_paths_flipped():
    base = ArrayMatching.from_pairs(4, [(0, 0), (1, 1)])
    # augment along the length-3 path v0(2) - v1(1) - v0(1) - v1(2)
    out = _flip_paths(base, [[2, 1, 1, 2]])
    assert out.mate(v0(0)) == v1(0)      # untouched
    assert out.mate(v0(2)) == v1(1)
    assert out.mate(v1(1)) == v0(2)
    assert out.mate(v0(1)) == v1(2)
    assert out.augmenting_paths == [[2, 1, 1, 2]]
    # a copy: the base keeps its pairs, and neither can be written to
    assert sorted(base.edges()) == [(0, 0), (1, 1)]
    for m in (base, out):
        for arr in (m.mate_of_v0(), m.mate_of_v1()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3


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


def test_array_oracles_answer_global_ids_from_read_only_arrays():
    phi = PotentialOracle([4, 5, 6], [-1, -2, -3], range_bound=9)
    us = np.array([v1(2), v0(0), v0(2), v1(0), v0(0)])
    assert phi.eval_many(us).tolist() == [-3, 4, 6, -1, 4]
    mem = SetMembership(3, [v1(2), v0(0), v0(0)])
    assert mem.in0.tolist() == [True, False, False]
    assert mem.in1.tolist() == [False, False, True]
    assert mem.contains_many(us).tolist() == [True, True, False, False, True]
    m = ArrayMatching.from_pairs(3, [(0, 2), (2, 1)])
    assert m.mates(us).tolist() == [v0(0), v1(2), v1(1), -1, v1(2)]
    for arr in (phi.phi0, phi.phi1, mem.in0, mem.in1):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
