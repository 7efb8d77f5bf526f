"""Missing-data imputation with class-conditional adversarial training.

Library surface: data ingestion and MCAR corruption (cgain.data), the
conditional/unconditional adversarial imputer (cgain.imputer), classical
baselines (cgain.baselines), the benchmark harness (cgain.evaluate), the
stand-in tables that README's library example uses (cgain.datasets), and a
CLI (cgain.cli, installed as the `cgain` command).
"""

from .nn import make_rng, spawn_rng, spawn_seed
from .data import (ColumnSpec, Dataset, IncompleteDataset, build_dataset, corrupt_mcar,
                   denormalize, load_csv, load_incomplete_csv, split_folds,
                   subsample_imbalance)
from .imputer import (ImputerModel, TrainConfig, TrainingTrace, generate, impute, load_model,
                      loss_discriminator, save_model, train)
from .baselines import MeanImputer, MiceLiteImputer
from .evaluate import BenchmarkReport, RmseResult, rmse_missing, run_benchmark, time_methods

__version__ = "0.1.0"
