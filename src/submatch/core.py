"""Bipartite instances, query-counted cost access, and the oracle layer.

Everything downstream is built from four oracle kinds: cost oracles (the
only objects that may touch the cost matrix, every access counted at the
root), matching oracles (``mate`` queries), potential oracles (integer
dual values with a declared range bound) and membership oracles (vertex
set predicates).  Oracles are immutable after construction; derived
oracles hold references to the oracles they are built from, never copies.
Because answers never change, every layered oracle keeps them in a
:class:`_Memo` and computes each vertex at most once.

Vertices carry a side bit: the V0 vertex with index ``i`` is encoded as
``2*i`` and the V1 vertex with index ``j`` as ``2*j + 1``, so ``u & 1`` is
a global id's side and ``u >> 1`` its index.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "v0", "v1",
    "QueryCounter", "CostOracle", "MatrixCost", "FunctionCost",
    "LevelCost", "MaterializedCost", "LevelMatrix", "LEVEL_SENTINEL",
    "BipartiteInstance", "write_instance", "read_instance",
    "MatchingOracle", "EmptyMatching", "ArrayMatching", "OverlayMatching",
    "PotentialOracle", "ZeroPotential",
    "MembershipOracle", "SetMembership",
]

UNMATCHED = -1  # array encoding of "no mate"

#: a :class:`LevelMatrix`'s non-edge, the largest int16; every level is below it
LEVEL_SENTINEL = np.iinfo(np.int16).max

BINARY_MAGIC = b"SUBM1"


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalize an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def seed_label(seed):
    """Reportable form of a seed (ints pass through, children are labeled)."""
    if isinstance(seed, np.random.SeedSequence):
        return f"entropy={seed.entropy},spawn_key={seed.spawn_key}"
    return int(seed)


def v0(i):
    """Global id of the side-0 vertex with index ``i``."""
    return i << 1


def v1(j):
    """Global id of the side-1 vertex with index ``j``."""
    return (j << 1) | 1


class QueryCounter:
    """Monotone counter of cost-matrix accesses.

    Single object per instance; every counted access adds exactly once.
    Oracles are read-only after construction, so under CPython's GIL the
    increment below is exact for concurrent readers.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, k: int):
        self.count += int(k)

    def reset(self):
        self.count = 0


class CostOracle:
    """Query access to an ``n x n`` nonnegative cost matrix.

    Subclasses implement ``_block(rows, cols, counted)`` and
    ``_pairs(is_, js, counted)``.  Counting happens at the root oracle
    only; adapters (:class:`_AdapterCost`) forward the ``counted`` flag so
    each matrix access is counted exactly once no matter how many adapters
    are stacked on top.  ``peek_*`` variants bypass the counter and exist
    for diagnostics and test harnesses only.  A :class:`MaterializedCost`
    counts its base's n^2 entries once, when it is built, and serves every
    later read from memory without counting again.

    A value of ``+inf`` is a sentinel meaning "non-edge"; all matching
    machinery treats it as an absent edge.  A graph is a cost oracle plus a
    limit, its edges the pairs of cost <= limit.
    """

    def __init__(self, n: int):
        self.n = int(n)

    # -- interface ---------------------------------------------------------
    def _block(self, rows: np.ndarray, cols: np.ndarray, counted: bool) -> np.ndarray:
        raise NotImplementedError

    def _pairs(self, is_: np.ndarray, js: np.ndarray, counted: bool) -> np.ndarray:
        raise NotImplementedError

    @property
    def counter(self) -> QueryCounter:
        raise NotImplementedError

    # -- counted access ----------------------------------------------------
    def block(self, rows, cols) -> np.ndarray:
        """Costs of the outer product ``rows x cols`` (side-0 x side-1 indices)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self._block(rows, cols, True)

    def pairs(self, is_, js) -> np.ndarray:
        """Element-wise costs ``c(is_[t], js[t])``."""
        is_ = np.asarray(is_, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        return self._pairs(is_, js, True)

    def peek_pairs(self, is_, js) -> np.ndarray:
        is_ = np.asarray(is_, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        return self._pairs(is_, js, False)

    # -- uncounted diagnostics ---------------------------------------------
    def peek_block(self, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return self._block(rows, cols, False)

    def peek_dense(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self.peek_block(idx, idx)

    def dense(self) -> np.ndarray:
        """Counted read of the full matrix."""
        idx = np.arange(self.n)
        return self.block(idx, idx)


class _RootCost(CostOracle):
    """Base for oracles that own the counter."""

    def __init__(self, n: int):
        super().__init__(n)
        self._counter = QueryCounter()

    @property
    def counter(self) -> QueryCounter:
        return self._counter


class MatrixCost(_RootCost):
    """Dense-matrix adapter (used for file-backed instances)."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("cost matrix must be square")
        super().__init__(matrix.shape[0])
        self._m = matrix

    def _block(self, rows, cols, counted):
        if counted:
            self._counter.add(len(rows) * len(cols))
        return self._m[np.ix_(rows, cols)]

    def _pairs(self, is_, js, counted):
        if counted:
            self._counter.add(len(is_))
        return self._m[is_, js]


class FunctionCost(_RootCost):
    """Cost oracle backed by two vectorized callbacks.

    ``fn(rows, cols)`` returns the outer-product block and
    ``pair_fn(is_, js)`` the element-wise costs, without forming the block.
    It is the generator's job to make both deterministic and consistent.
    """

    def __init__(self, n: int, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 pair_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        super().__init__(n)
        self._fn = fn
        self._pair_fn = pair_fn

    def _block(self, rows, cols, counted):
        if counted:
            self._counter.add(len(rows) * len(cols))
        return np.asarray(self._fn(rows, cols), dtype=np.float64)

    def _pairs(self, is_, js, counted):
        if counted:
            self._counter.add(len(is_))
        return np.asarray(self._pair_fn(is_, js), dtype=np.float64)


class _AdapterCost(CostOracle):
    """Base for the lazy cost adapters every reduction is built from.

    An elementwise adapter defines only ``_map(vals)`` (here the identity),
    applied to each read of the base.  Over ``n > base.n`` vertices it pads
    both sides with dummies, the indices from ``base.n`` up, each pair that
    touches one costing ``_dummy`` without a read: by default a dummy-real
    pair costs 1 and a dummy-dummy pair is a non-edge (+inf).  Adapters that
    change storage override ``_block`` and ``_pairs``.
    """

    #: costs of a dummy-real and of a dummy-dummy pair
    _dummy = (1.0, np.inf)

    def __init__(self, base: CostOracle, n: int | None = None):
        super().__init__(base.n if n is None else n)
        self.base = base

    @property
    def counter(self) -> QueryCounter:
        return self.base.counter

    def _map(self, vals: np.ndarray) -> np.ndarray:
        return vals

    def _block(self, rows, cols, counted):
        r_real = rows < self.base.n
        c_real = cols < self.base.n
        out = np.where(r_real[:, None] ^ c_real[None, :], *self._dummy)
        if r_real.any() and c_real.any():
            out[np.ix_(r_real, c_real)] = self._map(
                self.base._block(rows[r_real], cols[c_real], counted))
        return out

    def _pairs(self, is_, js, counted):
        r_real = is_ < self.base.n
        c_real = js < self.base.n
        both = r_real & c_real
        out = np.where(r_real ^ c_real, *self._dummy)
        if both.any():
            out[both] = self._map(self.base._pairs(is_[both], js[both], counted))
        return out


def _reject_negative(vals: np.ndarray):
    neg = vals < 0
    if neg.any():
        raise ValueError(f"malformed cost: negative cost {float(vals[neg][0])!r}; "
                         "costs must be non-negative")


class _Readout(_AdapterCost):
    """The base's own costs, 0 on every pair that touches a dummy."""

    _dummy = (0.0, 0.0)


class LevelCost(_AdapterCost):
    """The template's cost levels in one pass: a real cost c <= w becomes
    c_bar = ceil(2 c / (gamma^2 w)) + 1, a costlier one a non-edge (+inf),
    and dummies pad as in :class:`_AdapterCost`.  Reading a NaN or negative
    cost raises.  c <= (gamma^2 w / 2) * c_bar <= c + gamma^2 w, and a C
    below the level of w is rejected, so every value is an integer in
    [1, C] or +inf by construction.

    ``readout`` is the view the template's estimate is read through: the
    same base in its own units, a real pair reading its base cost and a
    pair that touches a dummy costing 0 without a read."""

    def __init__(self, base: CostOracle, gamma: float, w: float, C: int,
                 n: int | None = None):
        super().__init__(base, n)
        self.gamma, self.w, self.C = float(gamma), float(w), C
        if not self.w > 0:  # NaN fails this test too
            raise ValueError(f"w must be positive, not {w!r}")
        if self.w == np.inf:  # the levels would divide inf by inf
            raise ValueError("w must be finite, not inf")
        if np.ceil(2.0 * self.w / (self.gamma ** 2 * self.w)) + 1.0 > C:
            raise ValueError(f"C = {C} is below the level of w")
        self.readout = _Readout(base, self.n)

    def level(self, vals):
        """The level of each cost c <= w in ``vals``, without a read."""
        return np.ceil(2.0 * vals / (self.gamma ** 2 * self.w)) + 1.0

    def _map(self, vals):
        if np.count_nonzero(vals >= 0) < vals.size:  # NaN fails this test too
            if np.isnan(vals).any():
                raise ValueError("malformed cost: a cost read is NaN")
            _reject_negative(vals)
        levels = self.level(vals)
        levels[vals > self.w] = np.inf  # w is finite, so +inf stays a non-edge
        return levels


class MaterializedCost(_AdapterCost):
    """The whole base matrix, read once at construction and kept in memory.

    Building it is one counted ``base.block`` of all n x n entries; every
    later read is served from the stored matrix and counts nothing, so a
    caller that reads the matrix many times pays n^2 reads once.  The
    stored values are exactly the base's block values.  A block of all
    rows and all columns is a read-only view of the stored matrix, not a
    copy.
    """

    def __init__(self, base: CostOracle):
        super().__init__(base)
        self._all = np.arange(self.n)
        self._m = base.block(self._all, self._all)

    def _block(self, rows, cols, counted):
        if np.array_equal(rows, self._all) and np.array_equal(cols, self._all):
            out = self._m.view()
            out.flags.writeable = False
            return out
        return self._m[rows][:, cols]

    def _pairs(self, is_, js, counted):
        return self._m[is_, js]


class LevelMatrix(MaterializedCost):
    """A cost of levels, integers in [1, C] with C < ``LEVEL_SENTINEL`` or
    +inf, read once like a :class:`MaterializedCost` and kept as an int16
    matrix: each level as itself, +inf as ``LEVEL_SENTINEL``.  Its reads
    return int16 levels, a quarter of the float64 bytes.  ``readout``
    reads the same entries as float64 costs, +inf for the sentinel, and
    counts nothing."""

    def __init__(self, base: CostOracle):
        super().__init__(base)
        # every level is below the sentinel, so the minimum maps only +inf to it
        self._m = np.minimum(self._m, LEVEL_SENTINEL).astype(np.int16)

    @property
    def readout(self) -> CostOracle:
        # made on demand: held as an attribute it would close a reference
        # cycle, and the matrix would live until the cyclic collector runs
        return _LevelValues(self)


class _LevelValues(_AdapterCost):
    """A :class:`LevelMatrix`'s entries as float64 costs, the sentinel as +inf."""

    def _map(self, vals):
        return np.where(vals == LEVEL_SENTINEL, np.inf, vals)


class BipartiteInstance:
    """A complete bipartite instance: side size ``n`` plus a cost oracle."""

    def __init__(self, n: int, cost: CostOracle):
        if n <= 0:
            raise ValueError("n must be positive")
        if cost.n != n:
            raise ValueError("cost oracle size mismatch")
        self.n = int(n)
        self.cost = cost

    @classmethod
    def from_matrix(cls, matrix) -> "BipartiteInstance":
        cost = MatrixCost(np.asarray(matrix, dtype=np.float64))
        return cls(cost.n, cost)

    @property
    def query_count(self) -> int:
        return self.cost.counter.count

    def reset_query_count(self):
        self.cost.counter.reset()


def write_instance(instance_or_matrix, path, binary: bool = False):
    """Write an instance file.

    Text format: a header line ``n`` followed by n rows of n space-separated
    decimal costs.  Binary format: magic ``SUBM1``, little-endian u64 n, then
    n^2 little-endian f64 values in row-major order.  A matrix that is not
    square and 2-D raises ``ValueError`` before the file is opened.
    """
    if not isinstance(instance_or_matrix, BipartiteInstance):
        instance_or_matrix = BipartiteInstance.from_matrix(instance_or_matrix)
    matrix = instance_or_matrix.cost.peek_dense()
    n = matrix.shape[0]
    path = Path(path)
    if binary:
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<Q", n))
            fh.write(matrix.astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(f"{n}\n")
            for row in matrix:
                fh.write(" ".join(repr(float(x)) for x in row))
                fh.write("\n")


def _malformed(what: str) -> ValueError:
    return ValueError(f"malformed instance file: {what}")


def read_instance(path) -> BipartiteInstance:
    """Read an instance file (format auto-detected from the magic bytes).

    A file whose payload does not hold exactly the n x n costs its header
    announces raises ``ValueError("malformed instance file: ...")``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
        if head == BINARY_MAGIC:
            size = fh.read(8)
            if len(size) != 8:
                raise _malformed("the header ends before n")
            (n,) = struct.unpack("<Q", size)
            payload = fh.read()
            if len(payload) != 8 * n * n:
                raise _malformed(f"n={n} needs {8 * n * n} bytes of costs, "
                                 f"found {len(payload)}")
            matrix = np.frombuffer(payload, dtype="<f8").reshape(n, n).astype(np.float64)
            return BipartiteInstance.from_matrix(matrix)
    with open(path, "r") as fh:
        header = fh.readline().strip()
        try:
            n = int(header)
        except ValueError:
            raise _malformed(f"the header must be the integer n, not {header!r}") from None
        rows = []
        for i in range(n):
            line = fh.readline()
            if not line:
                raise _malformed(f"expected {n} rows of costs, found {i}")
            row = line.split()
            if len(row) != n:
                raise _malformed(f"row {i} has {len(row)} costs, expected {n}")
            try:
                vals = np.array(row, dtype=np.float64)
            except ValueError as err:
                raise _malformed(f"row {i}: {err}") from None
            rows.append(vals)
        if fh.read().strip():
            raise _malformed(f"more than {n} rows of costs")
    if not rows:
        raise _malformed(f"the size must be positive, not {n}")
    return BipartiteInstance.from_matrix(np.vstack(rows))


# ---------------------------------------------------------------------------
# Matching oracles
# ---------------------------------------------------------------------------

class _Memo:
    """Per-vertex answers of one oracle, each computed at most once.

    Oracles are immutable, so an answer never goes stale.  Every memoized
    oracle query is ``get(us, compute)``: ``compute`` sees only the
    distinct ids not answered before, ascending, and each id reaches it
    once.  Missing ids already strictly increasing, as every all-vertex
    query's are, skip the ``np.unique`` that would return them unchanged.
    """

    __slots__ = ("_vals", "_have")

    def __init__(self, n: int, dtype):
        self._vals = np.zeros(2 * n, dtype=dtype)
        self._have = np.zeros(2 * n, dtype=bool)

    def get(self, us: np.ndarray, compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        missing = us[~self._have[us]]
        if len(missing):
            if not (missing[1:] > missing[:-1]).all():
                missing = np.unique(missing)
            self._vals[missing] = compute(missing)
            self._have[missing] = True
        return self._vals[us]


class MatchingOracle:
    """Implicit matching answering ``mate(u) -> v or None`` on global ids.

    Invariants (enforced by construction, checked by the test suite):
    symmetry ``mate(mate(u)) == u``, bipartiteness (mates live on the
    opposite side) and determinism.

    Layered implementations (overlays, filters, thresholds) set
    ``cache_mates`` and keep their answers in a :class:`_Memo`, the same
    memo potential and membership oracles use; without it a query would
    walk the whole layer chain every time.  Array-backed matchings answer
    directly.
    """

    #: layered subclasses set this to memoize resolved mates
    cache_mates = False

    def __init__(self, n: int):
        self.n = int(n)
        self._memo = _Memo(self.n, np.int64) if self.cache_mates else None

    def _mates_impl(self, us: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mates(self, us) -> np.ndarray:
        """Vectorized mate query; UNMATCHED encodes "no mate"."""
        us = np.asarray(us, dtype=np.int64)
        if self._memo is None:
            return self._mates_impl(us)
        return self._memo.get(us, self._mates_impl)

    def mate(self, u: int):
        m = int(self.mates(np.array([u], dtype=np.int64))[0])
        return None if m == UNMATCHED else m

    # side-indexed convenience: mates of all V0 / V1 vertices as index arrays
    def mate_of_v0(self) -> np.ndarray:
        out = self.mates(v0(np.arange(self.n, dtype=np.int64)))
        return np.where(out == UNMATCHED, UNMATCHED, out >> 1)

    def mate_of_v1(self) -> np.ndarray:
        out = self.mates(v1(np.arange(self.n, dtype=np.int64)))
        return np.where(out == UNMATCHED, UNMATCHED, out >> 1)

    def size(self) -> int:
        """Exact matched-pair count (Theta(n) mate queries; desk scale)."""
        return int(np.count_nonzero(self.mate_of_v0() != UNMATCHED))

    def edges(self) -> list[tuple[int, int]]:
        """Explicit (i, j) index pairs (desk scale)."""
        m0 = self.mate_of_v0()
        return [(i, int(j)) for i, j in enumerate(m0) if j != UNMATCHED]


class EmptyMatching(MatchingOracle):
    def _mates_impl(self, us):
        return np.full(len(us), UNMATCHED, dtype=np.int64)


class ArrayMatching(MatchingOracle):
    """Matching stored as per-side mate-index arrays.  ``base``, when
    given, is the matching this one was cut from."""

    def __init__(self, mate0: np.ndarray, mate1: np.ndarray,
                 base: MatchingOracle | None = None):
        mate0 = np.asarray(mate0, dtype=np.int64)
        mate1 = np.asarray(mate1, dtype=np.int64)
        if len(mate0) != len(mate1):
            raise ValueError("side arrays must have equal length")
        super().__init__(len(mate0))
        self._mate0 = mate0
        self._mate1 = mate1
        self.base = base

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "ArrayMatching":
        mate0 = np.full(n, UNMATCHED, dtype=np.int64)
        mate1 = np.full(n, UNMATCHED, dtype=np.int64)
        for i, j in pairs:
            if mate0[i] != UNMATCHED or mate1[j] != UNMATCHED:
                raise ValueError("pairs do not form a matching")
            mate0[i] = j
            mate1[j] = i
        return cls(mate0, mate1)

    def _mates_impl(self, us):
        idx = us >> 1
        is1 = (us & 1).astype(bool)
        out = np.where(is1, self._mate1[idx], self._mate0[idx])
        # encode side: V0's mate is on side 1 and vice versa
        enc = np.where(is1, out << 1, (out << 1) | 1)
        return np.where(out == UNMATCHED, UNMATCHED, enc)


class OverlayMatching(MatchingOracle):
    """A matching expressed as a small patch over a base oracle.

    Holds a reference to the base (never a copy); only the vertices whose
    mate changed are stored explicitly.
    """

    cache_mates = True

    def __init__(self, base: MatchingOracle, changed: dict[int, int]):
        # changed maps global id -> new mate global id (UNMATCHED to free it)
        super().__init__(base.n)
        self.base = base
        keys = np.fromiter(changed.keys(), dtype=np.int64, count=len(changed))
        order = np.argsort(keys)
        self._keys = keys[order]
        self._vals = np.fromiter(changed.values(), dtype=np.int64, count=len(changed))[order]

    def _mates_impl(self, us):
        out = self.base.mates(us)
        if len(self._keys):
            pos = np.clip(np.searchsorted(self._keys, us), 0, len(self._keys) - 1)
            hit = self._keys[pos] == us
            out = np.where(hit, self._vals[pos], out)
        return out


# ---------------------------------------------------------------------------
# Potential and membership oracles
# ---------------------------------------------------------------------------

class PotentialOracle:
    """Integer dual potential with a declared range bound.

    ``range_bound`` is an upper bound on the number of distinct values the
    oracle may take.  Evaluations go through a :class:`_Memo`: the oracle
    DAG built across template iterations is immutable, so the memo is sound
    and keeps the layered evaluation cost linear instead of exponential in
    depth.
    """

    def __init__(self, n: int, range_bound: int):
        self.n = int(n)
        self.range_bound = int(range_bound)
        self._memo = _Memo(self.n, np.int64)

    def _eval_missing(self, us: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_many(self, us) -> np.ndarray:
        return self._memo.get(np.asarray(us, dtype=np.int64), self._eval_missing)

    def eval(self, u: int) -> int:
        return int(self.eval_many(np.array([u], dtype=np.int64))[0])

    def on_v0(self) -> np.ndarray:
        return self.eval_many(v0(np.arange(self.n, dtype=np.int64)))

    def on_v1(self) -> np.ndarray:
        return self.eval_many(v1(np.arange(self.n, dtype=np.int64)))


class ZeroPotential(PotentialOracle):
    def __init__(self, n: int, range_bound: int = 1):
        super().__init__(n, range_bound)

    def _eval_missing(self, us):
        return np.zeros(len(us), dtype=np.int64)


class MembershipOracle:
    """Deterministic vertex-set predicate on global ids (memoized)."""

    def __init__(self, n: int):
        self.n = int(n)
        self._memo = _Memo(self.n, bool)

    def _contains_missing(self, us: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains_many(self, us) -> np.ndarray:
        return self._memo.get(np.asarray(us, dtype=np.int64), self._contains_missing)

    def contains(self, u: int) -> bool:
        return bool(self.contains_many(np.array([u], dtype=np.int64))[0])


class SetMembership(MembershipOracle):
    def __init__(self, n: int, members: Iterable[int]):
        super().__init__(n)
        self._members = frozenset(int(u) for u in members)

    def _contains_missing(self, us):
        return np.fromiter((u in self._members for u in us), dtype=bool, count=len(us))
