"""Dropout compaction: train feed-forward nets whose per-unit retention
probabilities converge to 0 or 1, then remove the dead units."""

from .compaction import absorb_retention, count_weights, prune_units, svd_compact
from .data import Dataset, load_mnist_dir, split_train_dev
from .network import MlpParams, backward_batch, forward_batch, init_mlp
from .retention import RetentionParams, retention_update
from .trainer import TrainConfig, evaluate, run_training

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "MlpParams",
    "RetentionParams",
    "TrainConfig",
    "absorb_retention",
    "backward_batch",
    "count_weights",
    "evaluate",
    "forward_batch",
    "init_mlp",
    "load_mnist_dir",
    "prune_units",
    "retention_update",
    "run_training",
    "split_train_dev",
    "svd_compact",
]
