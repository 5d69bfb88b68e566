"""Prediction-driven mean-variance-skewness portfolio optimization.

Pipeline: weekly price ingestion, per-asset autoregressive network
prediction, risk estimation from prediction errors, GA portfolio
optimization under weight bounds, Taguchi parameter tuning, and
efficient-frontier sweeps.
"""

from .errors import PredfolioError
from .eval_metrics import KsResult, MetricReport, evaluate, ks_normality_test
from .frontier import FrontierPoint, efficient_filter, sweep
from .ga_solver import GAConfig, GAResult, evolve
from .market_data import ReturnSeries, align_universe, compute_returns, load_prices
from .objective import (
    Bounds,
    ObjectiveParams,
    Portfolio,
    decode_weights,
    penalized_cost,
    portfolio_return,
    portfolio_risk,
)
from .predictor import (
    PredictionRecord,
    PredictorConfig,
    TrainedPredictor,
    rolling_predict,
    split_series,
    train_arnn,
)
from .risk_model import RiskModel, asset_skewness, build_risk_model
from .taguchi import ARRAY, TuneResult, analyze_means, run_experiments

__version__ = "0.1.0"
