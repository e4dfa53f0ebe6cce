"""Online fairness- and class-imbalance-aware boosting for data streams."""

from .boosting import (BoostedEnsemble, Boundary, BoundaryWindow,
                       EnsembleParams, method_params)
from .config import ConfigError, ExperimentConfig, config_to_text, \
    parse_config_file, parse_config_text
from .data import (AttributeSpec, DataError, DatasetSchema, Instance, NEGATIVE,
                   POSITIVE, load_csv, save_csv, shuffled)
from .fairness import FairnessLedger, Notion, UndefinedRateError
from .generators import (DriftEvent, GeneratorConfig, GeneratorError,
                         PRESET_NAMES, Schedule, generate, preset,
                         with_overrides)
from .imbalance import ImbalanceMonitor
from .metrics import ConfusionCounts, metrics
from .prequential import (EvalConfig, Summary, Trace, TraceRow,
                          run_heads, run_prequential, write_trace)
from .rng import Xorshift64Star, permutation
from .tree import HoeffdingTree, TreeParams

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec", "BoostedEnsemble", "Boundary", "BoundaryWindow",
    "ConfigError",
    "ConfusionCounts", "DataError", "DatasetSchema", "DriftEvent",
    "EnsembleParams", "EvalConfig", "ExperimentConfig", "FairnessLedger",
    "GeneratorConfig", "GeneratorError", "HoeffdingTree", "ImbalanceMonitor",
    "Instance", "NEGATIVE", "Notion", "POSITIVE", "PRESET_NAMES", "Schedule",
    "Summary", "Trace", "TraceRow", "TreeParams",
    "UndefinedRateError", "Xorshift64Star", "config_to_text", "generate",
    "load_csv", "method_params", "metrics", "parse_config_file",
    "parse_config_text", "permutation", "preset", "run_heads",
    "run_prequential",
    "save_csv", "shuffled", "with_overrides", "write_trace",
]
