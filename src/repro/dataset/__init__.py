"""Synthetic Shenzhen-like driving dataset.

The paper trains and evaluates on a proprietary dataset of 3,306 private
cars / 214,718 trips / 17.9 M trajectories collected in Shenzhen in July
2016.  That data is not available, so this package generates a
statistically calibrated substitute:

- :mod:`repro.dataset.schema` — the record type of the paper's Table II
  (preprocessed features).
- :mod:`repro.dataset.speed_profiles` — per-road-type speed
  distributions with hour-of-day / day-of-week modulation (Fig. 2).
- :mod:`repro.dataset.drivers` — per-driver behaviour model with
  persistent anomaly episodes (what makes collaboration pay off).
- :mod:`repro.dataset.generator` — Table II telemetry synthesis.
- :mod:`repro.dataset.preprocess` — erroneous-record filtering and
  sigma-cutoff labelling.
- :mod:`repro.dataset.stats` — Table III-style dataset statistics.
- :mod:`repro.dataset.io` — telemetry CSV round-tripping.

The paper's Sec. IV raw-GPS stage (trip extraction, map matching, the
Eq. 4 derivation) is not reproduced: the generator emits Table II rows
directly and Table III is computed from them.
"""

from repro.dataset.drivers import DriverModel, DriverProfile
from repro.dataset.generator import DatasetGenerator, GeneratorConfig, SyntheticDataset
from repro.dataset.io import read_telemetry_csv, write_telemetry_csv
from repro.dataset.preprocess import FilterConfig, Preprocessor, SigmaCutoffLabeler
from repro.dataset.schema import ABNORMAL, NORMAL, AnomalyKind, TelemetryRecord
from repro.dataset.speed_profiles import SpeedProfile, SpeedProfileLibrary
from repro.dataset.stats import DatasetStatistics, compute_statistics

__all__ = [
    "ABNORMAL",
    "AnomalyKind",
    "DatasetGenerator",
    "DatasetStatistics",
    "DriverModel",
    "DriverProfile",
    "FilterConfig",
    "GeneratorConfig",
    "NORMAL",
    "Preprocessor",
    "SigmaCutoffLabeler",
    "SpeedProfile",
    "SpeedProfileLibrary",
    "SyntheticDataset",
    "TelemetryRecord",
    "compute_statistics",
    "read_telemetry_csv",
    "write_telemetry_csv",
]
