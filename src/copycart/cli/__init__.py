"""Pipeline orchestration: declarative config, full run, plots."""

import os

# no computation calls BLAS, and OpenBLAS's pool costs each CLI process ~70 ms to start on 2 CPUs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import RunConfig, load_yaml
from .pipeline import run_pipeline

__all__ = ["RunConfig", "load_yaml", "run_pipeline"]
