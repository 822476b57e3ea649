import os
import threading
import time

# OpenBLAS reads this once, at load: one BLAS thread per call is the setting
# the benchmark uses and the one under which comparative_report and
# crossval_run spread their fits over the usable CPUs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from woodwatch.features import FeatureConfig, FeatureSet, mfcc_frames
from woodwatch.synth import SynthConfig, gen_clean_clip, gen_infested_clip


def make_feature_set(n_per_class: int, duration_s: float = 1.25, snr_db: float = 12.0,
                     seed: int = 0) -> FeatureSet:
    """Small labeled feature set for fast model tests (T = 40 at 1.25 s)."""
    cfg = SynthConfig(duration_s=duration_s, snr_db=snr_db, seed=seed)
    rng = np.random.default_rng(seed)
    clip_seeds = rng.integers(0, 2**63, size=2 * n_per_class)
    ids, labels, matrices = [], [], []
    for i in range(n_per_class):
        ids.append(f"clean/{i}")
        labels.append(0)
        matrices.append(mfcc_frames(gen_clean_clip(cfg, int(clip_seeds[i]))).values)
    for i in range(n_per_class):
        ids.append(f"infested/{i}")
        labels.append(1)
        matrices.append(mfcc_frames(gen_infested_clip(cfg, int(clip_seeds[n_per_class + i]))).values)
    return FeatureSet(ids, np.array(labels), np.stack(matrices), FeatureConfig())


@pytest.fixture(scope="session")
def tiny_features() -> FeatureSet:
    return make_feature_set(8, seed=101)


def wait_for(predicate, timeout=20.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(autouse=True)
def no_server_thread_outlives_its_test():
    yield

    def alive():
        return [t.name for t in threading.enumerate() if t.name in ("ingest-accept", "ingest-connection")]

    assert wait_for(lambda: not alive(), timeout=1.0), f"server threads still running: {alive()}"
