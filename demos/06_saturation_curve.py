"""Fidelity of random trees against qubit number, below the capacity bound.

Random depth-N trees are quantised at L = 4096, decoded back from their bit
strings, and compared against the exact state.  Each row gives the median and
10th-percentile fidelity, the smallest segment at level N over all samples,
and the mean share of level N's 2^(N-1) segments that are absent (no bits
long) over the same trees.  Identical seeds give identical tables.
"""

import numpy as np

from qgrain import encode_nested, n_max, random_angle_tree, saturation_experiment

L, DEPTH, SAMPLES, SEED = 4096, 13, 120, 7
rows = saturation_experiment(L, 1, DEPTH, samples=SAMPLES, seed=SEED)
# The sweep's own trees: sample i draws from a generator seeded with seed XOR i.
states = [
    encode_nested(random_angle_tree(DEPTH, np.random.default_rng(SEED ^ i)), L)[1]
    for i in range(SAMPLES)
]

print(f"granularity L = {L}, {SAMPLES} samples per row, seed {SEED}")
print(f"{'N':>3} {'median fidelity':>16} {'10th pct':>10} {'min segment':>12} {'absent share':>13}")
for row in rows:
    level = 1 << (row.N - 1)
    absent = np.mean([1 - state.live_lengths(row.N).size / level for state in states])
    print(
        f"{row.N:>3} {row.median_fidelity:>16.8f} "
        f"{row.p10_fidelity:>10.6f} {row.min_segment_len:>12} {absent:>13.4f}"
    )

print()
print(f"n_max({L}) = {n_max(L)}; the paper's N_max, the first capacity-deficient N, is "
      f"{n_max(L) + 1}")
