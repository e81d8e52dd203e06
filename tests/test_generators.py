import numpy as np
import pytest

from submatch.generators import (
    euclidean_instance, make_instance, one_two_metric_instance,
    permutation_instance, uniform_instance,
)


def test_uniform_deterministic_and_in_range():
    a = uniform_instance(16, 5).cost.peek_dense()
    b = uniform_instance(16, 5).cost.peek_dense()
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    c = uniform_instance(16, 6).cost.peek_dense()
    assert not np.array_equal(a, c)


def test_uniform_pairs_consistent_with_block():
    inst = uniform_instance(32, 9)
    rng = np.random.default_rng(0)
    is_, js = rng.integers(0, 32, 50), rng.integers(0, 32, 50)
    dense = inst.cost.peek_dense()
    assert np.array_equal(inst.cost.peek_pairs(is_, js), dense[is_, js])


def test_euclidean_costs_match_point_distances():
    inst = euclidean_instance(10, 3, dim=2)
    p0, p1 = inst.points
    dense = inst.cost.peek_dense()
    for i in range(10):
        for j in range(10):
            assert dense[i, j] == pytest.approx(np.linalg.norm(p0[i] - p1[j]))


@pytest.mark.parametrize("dim", [0, -1])
def test_euclidean_rejects_dim_below_one(dim):
    with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
        euclidean_instance(5, 0, dim=dim)


def test_one_two_metric_values():
    inst = one_two_metric_instance(12, 4, p=0.5)
    dense = inst.cost.peek_dense()
    assert set(np.unique(dense)) <= {1.0, 2.0}
    assert np.array_equal(dense, one_two_metric_instance(12, 4, p=0.5).cost.peek_dense())


def test_permutation_instance_has_zero_cost_perfect_matching():
    inst = permutation_instance(9, 2)
    dense = inst.cost.peek_dense()
    perm = inst.permutation
    assert all(dense[i, perm[i]] == 0.0 for i in range(9))
    assert dense.sum() == 9 * 9 - 9  # everything else costs 1


def test_make_instance_dispatch_and_unknown():
    inst = make_instance("one-two-metric", 6, 1, p=0.3)
    assert inst.n == 6
    with pytest.raises(ValueError):
        make_instance("nope", 4, 0)


# The hash as it read before the row and column keys were precomputed: three
# SplitMix64 passes per entry.  Every uniform and (1,2)-metric read must stay
# bit-identical to it.
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _ref_splitmix(x):
    x = (x + _GOLD) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _ref_pair_hash(rows, cols, seed):
    r = _ref_splitmix(rows.astype(np.uint64) + np.uint64(seed & (2 ** 64 - 1)))
    c = _ref_splitmix(cols.astype(np.uint64) ^ np.uint64(0xA5A5A5A5A5A5A5A5))
    with np.errstate(over="ignore"):
        return _ref_splitmix(r[:, None] * _GOLD + c[None, :])


def _ref_unit(rows, cols, seed):
    return (_ref_pair_hash(rows, cols, seed) >> np.uint64(11)).astype(np.float64) / float(2 ** 53)


def _ref_elem_hash(is_, js, seed):
    r = _ref_splitmix(is_.astype(np.uint64) + np.uint64(seed & (2 ** 64 - 1)))
    c = _ref_splitmix(js.astype(np.uint64) ^ np.uint64(0xA5A5A5A5A5A5A5A5))
    with np.errstate(over="ignore"):
        return _ref_splitmix(r * _GOLD + c)


def _ref_unit_pairs(is_, js, seed):
    return (_ref_elem_hash(is_, js, seed) >> np.uint64(11)).astype(np.float64) / float(2 ** 53)


_REF_SEEDS = (0, 3, 12345, 2 ** 63 + 5, 2 ** 64 - 1, -1)


def _ref_reads(n):
    """(rows, cols) blocks and (is_, js) pair reads covering the awkward shapes."""
    rng = np.random.default_rng(n)
    full = np.arange(n)
    empty = np.arange(0)
    blocks = [
        (full, full),
        (rng.integers(0, n, 13), rng.integers(0, n, 9)),  # unsorted, repeated
        (np.array([n - 1, 0, n - 1, 0]), np.array([0, 0, n - 1])),
        (empty, full),
        (full, empty),
    ]
    pairs = [
        (rng.integers(0, n, 500), rng.integers(0, n, 500)),
        (full, full[::-1].copy()),
        (empty, empty),
    ]
    return blocks, pairs


@pytest.mark.parametrize("n", [1, 7, 200, 600])
def test_uniform_reads_equal_the_three_pass_reference(n):
    blocks, pairs = _ref_reads(n)
    for seed in _REF_SEEDS:
        cost = uniform_instance(n, seed).cost
        for rows, cols in blocks:
            assert np.array_equal(cost.peek_block(rows, cols), _ref_unit(rows, cols, seed))
        for is_, js in pairs:
            assert np.array_equal(cost.peek_pairs(is_, js), _ref_unit_pairs(is_, js, seed))


@pytest.mark.parametrize("n", [1, 7, 200, 600])
def test_one_two_metric_reads_equal_the_three_pass_reference(n):
    blocks, pairs = _ref_reads(n)
    for seed in _REF_SEEDS:
        for p in (0.0, 0.3, 1.0):
            cost = one_two_metric_instance(n, seed, p=p).cost
            for rows, cols in blocks:
                want = np.where(_ref_unit(rows, cols, seed) < p, 1.0, 2.0)
                assert np.array_equal(cost.peek_block(rows, cols), want)
            for is_, js in pairs:
                want = np.where(_ref_unit_pairs(is_, js, seed) < p, 1.0, 2.0)
                assert np.array_equal(cost.peek_pairs(is_, js), want)


@pytest.mark.parametrize("gen", [uniform_instance, one_two_metric_instance])
def test_reads_leave_the_stored_keys_alone(gen):
    n = 50
    inst = gen(n, 11)
    keys = [k.copy() for k in inst.keys]
    full = np.arange(n)

    def unchanged():
        return all(np.array_equal(k, before) for k, before in zip(inst.keys, keys))

    first = inst.cost.peek_block(full, full)
    assert unchanged()
    assert np.array_equal(inst.cost.peek_block(full, full), first)
    assert unchanged()
    first = inst.cost.peek_pairs(full, full)
    assert unchanged()
    assert np.array_equal(inst.cost.peek_pairs(full, full), first)
    assert unchanged()


@pytest.mark.parametrize("gen", [
    uniform_instance, one_two_metric_instance, euclidean_instance, permutation_instance,
])
def test_numpy_integer_seeds_equal_int_seeds_and_floats_are_rejected(gen):
    want = gen(8, 5).cost.peek_dense()
    for seed in (np.int64(5), np.int32(5), np.uint64(5)):
        assert np.array_equal(gen(8, seed).cost.peek_dense(), want)
    with pytest.raises(TypeError, match="seed"):
        gen(8, 5.0).cost.peek_dense()
    if gen in (uniform_instance, one_two_metric_instance):  # hashed seeds wrap mod 2^64
        assert np.array_equal(gen(8, -1).cost.peek_dense(),
                              gen(8, 2 ** 64 - 1).cost.peek_dense())
