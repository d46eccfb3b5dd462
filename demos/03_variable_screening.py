#!/usr/bin/env python3
"""Screen the seven mixture variables with principal component analysis.

Each group's mixtures form a small matrix over (wc, c3a, c3s, c2s, c4af,
cement content, air). After standardizing, the first few components carry
most of the variance; the variable with the largest absolute loading in
each retained component is flagged as a regression candidate.
"""

import numpy as np

from sulfexp import center_and_scale, generate_synthetic, principal_components, select_dominant_variables
from sulfexp.mixtures import MIXTURE_FIELDS

dataset = generate_synthetic((10, 10, 10), noise=0.0, seed=23)

by_group = {}
for mix, _ in dataset.pairs:
    by_group.setdefault(dataset.labels[mix.id], []).append(mix.feature_row())

for group, rows in by_group.items():
    matrix = np.array(rows)
    centered, _, _ = center_and_scale(matrix, standardize=True)
    result = principal_components(centered, m=3)
    picks = select_dominant_variables(result, m=3)
    print(f"group {group.value}: explained ratios "
          + ", ".join(f"{r:.1%}" for r in result.explained_ratio)
          + f"  (total {result.explained_ratio.sum():.1%})")
    for pick in picks:
        name = MIXTURE_FIELDS[pick.column]
        loading = result.loadings[pick.component][pick.column]
        note = " (already picked)" if pick.duplicate else ""
        print(f"  component {pick.component + 1}: {name:15s} loading {loading:+.3f}{note}")
    print()
