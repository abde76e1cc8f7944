"""The three benchmark workloads and the dataset each one is built from.

Each workload pins the dataset, split and training seed that the
acceptance tests use for the same regime, so `error_pct` is the quantity
those tests bound and it repeats exactly. The benchmark seed drives what a
caller of the trained model sends: the order of single-instance queries
and of the 256-instance batches.

`tiny=True` shrinks every dataset so the harness self-check runs in
seconds; the plans keep their shape wherever the smaller data allows.
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional

THREADS = 2  # os.cpu_count() on the 2-vCPU reference box; see README.md


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str              # "covtype" or "rcv1"
    plan: tuple               # (method, n_subspaces, group_size) entries
    local_lam: Optional[float]
    global_p: int
    train_seed: int
    scale: bool               # max-abs scale train, replay the scale on test
    n_features: Optional[int]  # parse override, as a train config would give
    max_error_pct: float      # the acceptance tests' bound for this data


def get(name, tiny=False):
    rcv1_features = 20000 if tiny else 47236
    half, quarter = rcv1_features // 2, rcv1_features // 4
    table = {
        "covtype-dense": Workload(
            "covtype-dense", "covtype",
            (("rd", 4, 40), ("pca", 4, 40), ("dca", 4, 40), ("bcd", 4, 27),
             ("abd", 4, 27)),
            None, 2, 7, True, None, 30.0),
        "rcv1-sparse": Workload(
            "rcv1-sparse", "rcv1",
            (("rd", 4, half), ("abd", 4, quarter)),
            1.0, 3, 31, False, rcv1_features, 8.0),
        "fusion-wide": Workload(
            "fusion-wide", "covtype",
            (("pca", 10, 20), ("rd", 10, 20)),
            None, 3, 7, True, None, 30.0),
    }
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    if tiny:  # too little data for the acceptance bounds; require better than chance
        return dataclasses.replace(table[name], max_error_pct=50.0)
    return table[name]


NAMES = ("covtype-dense", "rcv1-sparse", "fusion-wide")


def make_data(wl, tiny=False):
    """(train, test) Datasets for the workload, built from the generators
    exactly as the acceptance tests build their surrogates."""
    import numpy as np
    from featdc import (SplitSpec, make_quadratic_band, make_sparse_planted,
                        select_instances, split)

    if wl.dataset == "covtype":
        n, n_train = (1250, 1000) if tiny else (25000, 20000)
        full = make_quadratic_band(n, n_features=54, seed=2024)
        perm = np.random.default_rng(77).permutation(n)
        return (select_instances(full, np.sort(perm[:n_train])),
                select_instances(full, np.sort(perm[n_train:])))
    n = 1000 if tiny else 20242
    ds = make_sparse_planted(n, n_features=wl.n_features,
                             n_signal=100 if tiny else 500, seed=97,
                             margin=0.5)
    return split(ds, SplitSpec(train_fraction=0.9, seed=5))
