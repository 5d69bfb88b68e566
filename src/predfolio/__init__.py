"""Prediction-driven mean-variance-skewness portfolio optimization.

Pipeline: weekly price ingestion, per-asset autoregressive network
prediction, risk estimation from prediction errors, GA portfolio
optimization under weight bounds, Taguchi parameter tuning, and
efficient-frontier sweeps.
"""

import os

# One BLAS thread unless the caller chose a count: a threaded BLAS splits
# its sums by thread, so the last bits of every result, and so the
# artifacts, would follow the host's core count. This must run before
# numpy first loads; a process that loaded numpy already keeps its count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import PredfolioError  # noqa: E402
from .eval_metrics import KsResult, MetricReport, evaluate, ks_normality_test  # noqa: E402
from .frontier import FrontierPoint, efficient_filter, sweep  # noqa: E402
from .ga_solver import GAConfig, GAResult, evolve  # noqa: E402
from .market_data import ReturnSeries, align_universe, compute_returns, load_prices  # noqa: E402
from .objective import (  # noqa: E402
    Bounds,
    ObjectiveParams,
    Portfolio,
    decode_weights,
    penalized_cost,
    portfolio_return,
    portfolio_risk,
)
from .predictor import (  # noqa: E402
    PredictionRecord,
    PredictorConfig,
    TrainedPredictor,
    rolling_predict,
    split_series,
    train_arnn,
)
from .risk_model import RiskModel, asset_skewness, build_risk_model  # noqa: E402
from .taguchi import ARRAY, TuneResult, analyze_means, run_experiments  # noqa: E402

__version__ = "0.1.0"
