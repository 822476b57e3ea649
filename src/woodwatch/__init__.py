"""Acoustic wood-pest detection: features, classifiers, evaluation, ingestion."""

from .audio import AudioClip, ClipLabel, load_wav, resample_linear, save_wav, segment_clip
from .features import FeatureConfig, FeatureSet, MfccMatrix, mfcc_frames
from .models import ModelKind, TrainConfig, build_model, predict, train
from .synth import SynthConfig, gen_clean_clip, gen_dataset, gen_infested_clip

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "ClipLabel",
    "FeatureConfig",
    "FeatureSet",
    "MfccMatrix",
    "ModelKind",
    "SynthConfig",
    "TrainConfig",
    "build_model",
    "gen_clean_clip",
    "gen_dataset",
    "gen_infested_clip",
    "load_wav",
    "mfcc_frames",
    "predict",
    "resample_linear",
    "save_wav",
    "segment_clip",
    "train",
]
