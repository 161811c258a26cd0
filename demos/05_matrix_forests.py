"""Lazy union with matrix forests: instead of folding every small delta
into one big matrix (rebuilding it each time), the matrix lives as a set
of pieces in size classes a factor b apart.  Pieces within a factor b of
each other, equal sizes included, merge, so small deltas only ever merge
with other small pieces and the forest keeps O(log_b nnz) pieces.

Run from the repository root:  python3 demos/05_matrix_forests.py
"""

import random

from cflr import MatrixForest, OpCounter, forest_insert
from cflr.sparse import Accumulator, BoolMat, masked, union

rng = random.Random(0)


def random_delta(n, count):
    return BoolMat.from_entries(
        n, n, {(rng.randrange(n), rng.randrange(n)) for _ in range(count)}
    )


n = 200
base = random_delta(n, 4000)

print("inserting one big matrix and a stream of small deltas (b=10):\n")
forest = MatrixForest(b=10)
lazy_counter = OpCounter()
eager_counter = OpCounter()
eager = BoolMat.empty(n, n)

forest_insert(forest, base, lazy_counter)
eager = union(eager, base, eager_counter)

print(f"{'step':>4} {'delta':>6} {'forest sizes':<30} {'lazy union work':>16} {'eager union work':>17}")
for step in range(1, 13):
    d = random_delta(n, rng.randrange(2, 30))
    forest_insert(forest, d, lazy_counter)
    eager = union(eager, d, eager_counter)
    print(
        f"{step:>4} {d.nnz:>6} {str(forest.sizes()):<30} "
        f"{lazy_counter.union_entries:>16} {eager_counter.union_entries:>17}"
    )

print("\nThe eager accumulator re-reads its thousands of entries on every")
print("insert; the forest merges a delta only with pieces in its own size")
print("class, so its cumulative union work stays far smaller.")

# the forest still answers exactly like the folded matrix: a probe masked
# by the forest's pieces keeps what it keeps when masked by the folded one
probe = random_delta(n, 500)


def probe_masked_by(pieces):
    acc = Accumulator(n, n)
    acc.add(probe)
    return masked(acc, pieces)


assert probe_masked_by(forest.payloads()) == probe_masked_by([eager])
print("\nmasking by the forest's pieces == masking by the folded matrix")

# one-entry deltas, as a deep chain produces them: equal sizes merge, so
# the piece count follows log_b of the entries held
print("\na stream of 1,000 one-entry deltas (b=10):\n")
print(f"{'inserts':>8} {'pieces':>7} {'bound 1+log_b(nnz)':>19}  forest sizes")
cells = rng.sample(range(n * n), 1000)
stream = MatrixForest(b=10)
for step, cell in enumerate(cells, 1):
    forest_insert(stream, BoolMat.from_entries(n, n, [divmod(cell, n)]))
    assert len(stream) <= stream.piece_bound()
    if step in (1, 9, 10, 99, 100, 999, 1000):
        print(f"{step:>8} {len(stream):>7} {stream.piece_bound():>19}  {stream.sizes()}")
