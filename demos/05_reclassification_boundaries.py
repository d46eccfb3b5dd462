#!/usr/bin/env python3
"""Train the two mixture-space boundaries and simplify the first one.

Expansion-based clustering can only label mixtures that already have
decades of measurements. The soft-margin linear classifier turns those
labels into boundaries over mixture proportions alone: first HN against
the rest in the (c3a, wc) plane, then ML against LL in the (c3s, wc)
plane. The first boundary is nearly vertical, so it collapses to a plain
c3a threshold.
"""

import numpy as np

from sulfexp import GroupLabel, generate_synthetic, simplify_axis_parallel, svm_train

dataset = generate_synthetic((10, 12, 10), noise=0.0, seed=47)
mixtures = [mix for mix, _ in dataset.pairs]
labels = dataset.labels

first_points = np.array([[m.c3a, m.wc] for m in mixtures])
first_y = np.array([1.0 if labels[m.id] is GroupLabel.HN else -1.0 for m in mixtures])
first = svm_train(first_points, first_y, C=100.0, feature_names=("c3a", "wc"))
simplified = simplify_axis_parallel(first, first_points, first_y)
print(f"first boundary:      {first.equation()}")
print(f"  objective {first.objective:.4f}, max slack {first.slacks.max():.2e}")
print(f"simplified boundary: {simplified.equation()}")

rest = [m for m in mixtures if labels[m.id] is not GroupLabel.HN]
second_points = np.array([[m.c3s, m.wc] for m in rest])
second_y = np.array([1.0 if labels[m.id] is GroupLabel.ML else -1.0 for m in rest])
second = svm_train(second_points, second_y, C=100.0, feature_names=("c3s", "wc"))
print(f"second boundary:     {second.equation()}")

# a mixture is on a boundary's +1 side when its decision value is >= 0
errors = sum(
    (first.decision_value([m.c3a, m.wc]) >= 0) != (labels[m.id] is GroupLabel.HN)
    for m in mixtures
)
errors2 = sum(
    (second.decision_value([m.c3s, m.wc]) >= 0) != (labels[m.id] is GroupLabel.ML)
    for m in rest
)
print(f"\ntraining errors: first {errors}/{len(mixtures)}, second {errors2}/{len(rest)}")
