"""featdc: divide-and-conquer classification by feature-space decomposition.

The feature space is transformed and carved into subspaces by a plan of
decomposition sub-methods (rd, pca, dca, bcd, abd); an independent local
classifier is trained on every subspace view; a global classifier fuses
the local scores into the final prediction.

Typical use::

    from featdc import Dataset, train_dc, predict_dc, evaluate
    model = train_dc(train, plan=[("rd", 4, 40), ("abd", 4, 14)])
    labels, scores = predict_dc(model, test)
    print(evaluate(labels, test.y)["error_rate_pct"])
"""

from .classify import (LinearModel, TrbfModel, sigma_heuristic,
                       train_linear, train_trbf_krr, trbf_dim, trbf_expand,
                       trbf_indices)
from .dataio import (Dataset, SplitSpec, apply_feature_scale, load_libsvm,
                     max_abs_scale, parse_libsvm, save_libsvm,
                     select_instances, serialize_libsvm, split)
from .datasets import make_quadratic_band, make_sparse_planted
from .decompose import (CompositeDecomposition, SubspaceDecomposition,
                        apply_decomposition, block_gram, disjoint_groups,
                        feature_scatter, fit_abd, fit_bcd, fit_dca, fit_pca,
                        fit_plan, make_rd, overlapping_groups,
                        within_class_scatter)
from .errors import (ConfigError, DataError, FeatdcError, NumericError,
                     ParseError, ValidationError)
from .fuse import (DcModel, Guards, LearnerSpec, build_r, evaluate,
                   predict_dc, standardize_rows, train_dc)
from .numerics import EigResult, gen_sym_eig, solve_spd, sym_eig
from .persist import load_dc_model, save_dc_model

__version__ = "0.1.0"

__all__ = [
    "CompositeDecomposition", "ConfigError", "DataError", "Dataset",
    "DcModel", "EigResult", "FeatdcError", "Guards", "LearnerSpec",
    "LinearModel", "NumericError", "ParseError", "SplitSpec",
    "SubspaceDecomposition", "TrbfModel", "ValidationError",
    "apply_decomposition", "apply_feature_scale", "block_gram", "build_r",
    "disjoint_groups", "evaluate", "feature_scatter", "fit_abd", "fit_bcd",
    "fit_dca", "fit_pca", "fit_plan", "gen_sym_eig", "load_dc_model",
    "load_libsvm", "make_quadratic_band", "make_rd", "make_sparse_planted",
    "max_abs_scale", "overlapping_groups", "parse_libsvm", "predict_dc",
    "within_class_scatter", "save_dc_model",
    "save_libsvm", "select_instances", "serialize_libsvm", "sigma_heuristic",
    "solve_spd", "split", "standardize_rows", "sym_eig", "train_dc",
    "train_linear", "train_trbf_krr", "trbf_dim", "trbf_expand",
    "trbf_indices", "__version__",
]
