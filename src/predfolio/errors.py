"""Exception types shared across the pipeline."""

from __future__ import annotations

from pathlib import Path


class PredfolioError(Exception):
    """Base class for all predfolio errors."""


class ParseError(PredfolioError):
    """A price-file row could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InsufficientDataError(PredfolioError):
    """Too few observations for the requested operation."""


class AlignmentError(PredfolioError):
    """No usable common window across the supplied return series."""


class DimensionError(PredfolioError):
    """Operand shapes or lengths do not agree."""


class EstimationError(PredfolioError):
    """Risk/return estimation received unusable inputs."""


class TrainingError(PredfolioError):
    """Network training failed; carries the epoch at which it did."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


class MetricError(PredfolioError):
    """Metric inputs are malformed."""


class DegenerateInputError(PredfolioError):
    """Input has no variation where variation is required."""


class InfeasibleBoundsError(PredfolioError):
    """Weight bounds admit no valid allocation."""


class ConfigError(PredfolioError):
    """Invalid configuration value or combination."""


class ExperimentError(PredfolioError):
    """A designed-experiment run table is incomplete or a run failed."""


def undecodable_line(path) -> int:
    """The physical line of the first byte of ``path`` that is not UTF-8,
    counting ``\\n``, ``\\r`` and ``\\r\\n`` line breaks. It reads the whole
    file as bytes, so call it only once reading the file as text has failed.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1
