"""Model checkpoint container.

The file is a ``WWCK`` container (see :mod:`woodwatch.container`): a JSON
header, then every parameter as flat little-endian float64 in layer order
(within a layer: Dense W,b; Conv1D K,b; LSTM W,U,b). The header records
format version, architecture kind, the layer spec list, the training seed,
and any feature-preprocessing state the model needs at inference time.
Version 2 graphs end in logits; version 1 graphs, which did not, are rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..container import read_container, read_file, write_container
from ..errors import CheckpointError
from .layers import ModelGraph

_MAGIC = b"WWCK"
_FORMAT_VERSION = 2


@dataclass
class Checkpoint:
    graph: ModelGraph
    kind: str
    seed: int
    feature_stats: dict | None
    feature_config: dict | None
    digest: str


def save_checkpoint(path: str | Path, graph: ModelGraph, kind: str, seed: int,
                    feature_stats: dict | None = None,
                    feature_config: dict | None = None) -> None:
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "layers": graph.specs(),
        "seed": seed,
        "param_count": graph.param_count,
        "feature_stats": feature_stats,
        "feature_config": feature_config,
    }
    payload = np.concatenate([p.reshape(-1) for p in graph.params()]) if graph.params() else np.empty(0)
    write_container(path, _MAGIC, header, payload)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """The checkpoint at ``path``; a bad file or a non-finite parameter raises CheckpointError."""
    graph = kind = seed = None

    def param_count(header: dict) -> int:
        nonlocal graph, kind, seed
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}, this build reads "
                             f"version {_FORMAT_VERSION}; retrain the model")
        kind, seed = header["kind"], header["seed"]
        graph = ModelGraph.from_specs(header["layers"])
        return graph.param_count

    data = read_file(path)  # parsed and digested: checkpoint_id names these bytes
    header, flat = read_container(data, path, _MAGIC, CheckpointError, param_count)
    if not np.isfinite(flat).all():
        raise CheckpointError(f"{path}: a parameter is NaN or infinite")
    offset = 0
    for param in graph.params():
        param[...] = flat[offset : offset + param.size].reshape(param.shape)
        offset += param.size
    return Checkpoint(
        graph=graph,
        kind=kind,
        seed=seed,
        feature_stats=header.get("feature_stats"),
        feature_config=header.get("feature_config"),
        digest=hashlib.sha256(data).hexdigest()[:12],
    )
