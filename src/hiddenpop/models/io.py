"""Versioned model persistence; the feature schema travels inside the file."""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import fields

import numpy as np

from ..errors import HiddenPopError, SchemaMismatch
from ..features import FeatureSchema
from ..ingest import atomic_open, check_round_trip, reading
from .forest import DecisionTree, ForestModel
from .logistic import FIT_RANGES, LogisticModel

FORMAT_VERSION = 2

# a model's file holds each field of its dataclass but a forest's trees, and its derived
# and fixed values (see _payload); trees are n_nodes and one string per node field
_MODEL_TYPES = {LogisticModel: "logistic", ForestModel: "forest"}
# how a model field of each annotated type is read from its JSON value; an array is
# read flat, so a nested list of weights loads as a list that differs from it
_CASTS = {"int": int, "float": float,
          "np.ndarray": lambda value: np.ravel(np.array(value, dtype=float))}
# each node field of all trees, concatenated, as base64 of these little-endian items;
# counts is (nodes, 2), row-major
_NODE_FIELDS = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4",
                "counts": "<i4"}


def model_type(model) -> str:
    """The `model_type` tag a model is saved under: "logistic" or "forest"."""
    try:
        return _MODEL_TYPES[type(model)]
    except KeyError:
        raise TypeError(f"unsupported model type {type(model).__name__}") from None


def _payload(model, schema: FeatureSchema) -> dict:
    """What save_model writes, less a forest's node strings."""
    saved = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "trees"}
    if isinstance(model, LogisticModel):
        saved.update(weights=model.weights.tolist(), converged=model.converged)
    else:  # min_leaf and max_depth are fixed: every tree grows to purity
        saved.update(n_trees=model.n_trees, mtry=model.mtry, min_leaf=1, max_depth=None,
                     n_nodes=[len(t.feature) for t in model.trees])
    return {"format_version": FORMAT_VERSION, "schema": json.loads(schema.to_json()),
            "model_type": model_type(model), "model": saved}


def _packed_trees(trees) -> dict:
    """Each node field of all trees as one base64 string."""
    packed = {}
    for name, dtype in _NODE_FIELDS.items():
        values = np.concatenate([getattr(t, name) for t in trees])
        items = values.astype(dtype)
        if name != "threshold" and not np.array_equal(items, values):
            raise HiddenPopError(f"a forest's {name} holds a value outside {dtype}")
        packed[name] = base64.b64encode(items.tobytes()).decode("ascii")
    return packed


def _decoded(model: dict, name: str) -> np.ndarray:
    """A node field of all trees, decoded; its string leaves model, so each is freed in turn."""
    text, dtype = model.pop(name), np.dtype(_NODE_FIELDS[name])
    if not isinstance(text, str):
        raise TypeError(f"{name} must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{name} is not base64: {exc}") from None
    del text
    if len(data) % dtype.itemsize:
        raise ValueError(f"{name} is not a whole number of {dtype.str} items ({len(data)} bytes)")
    return np.frombuffer(data, dtype).astype(float if dtype.kind == "f" else np.int64)


def _unpacked_trees(model: dict, n_features: int) -> list:
    """A saved forest's trees, checked in one pass over all nodes to hold one binary tree each."""
    sizes = np.array(model["n_nodes"])
    if sizes.ndim != 1 or not sizes.size or sizes.dtype.kind not in "iu":
        raise ValueError("n_nodes must be a non-empty list of integers")
    feature, threshold, left, right, counts = (_decoded(model, name) for name in _NODE_FIELDS)
    n = len(feature)
    if (sizes < 1).any() or (sizes > n).any() or sizes.sum() != n:
        raise ValueError(f"n_nodes must be counts >= 1 that sum to the {n} nodes of feature")
    if len(threshold) != n or len(left) != n or len(right) != n:
        raise ValueError("feature, threshold, left and right must hold one value per node")
    if counts.size != 2 * n or (counts < 0).any():
        raise ValueError("counts must hold one pair of non-negative counts per node")
    counts = counts.reshape(n, 2)
    start = np.cumsum(sizes) - sizes  # each tree's first node; child indices count from it
    tree = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(n) - start[tree]
    inner = np.flatnonzero(feature != -1)  # a leaf has feature -1
    if ((feature[inner] < 0) | (feature[inner] >= n_features)).any():
        raise ValueError(f"a split feature is outside 0..{n_features - 1}")
    for child in (left[inner], right[inner]):
        if ((child <= local[inner]) | (child >= sizes[tree[inner]])).any():
            raise ValueError("a child index does not point forward inside its tree")
    children = np.concatenate([left[inner], right[inner]]) + np.tile(start[tree[inner]], 2)
    if (np.bincount(children, minlength=n)[local > 0] != 1).any():
        raise ValueError("a node other than the root is not the child of exactly one node")
    arrays = (np.split(a, start[1:]) for a in (feature, threshold, left, right, counts))
    return [DecisionTree(*nodes) for nodes in zip(*arrays)]


def save_model(path, model, schema: FeatureSchema):
    payload = _payload(model, schema)
    if isinstance(model, ForestModel):
        payload["model"].update(_packed_trees(model.trees))
    with atomic_open(path) as f:
        # streamed by the Python encoder, quick on a payload without long lists, so the
        # whole text is never held beside the node strings
        json.dump(payload, f, sort_keys=True)


def load_model(path):
    """Returns (model, schema); a file that is not a saved model raises DataError.

    Each field is read and cast to its type; the file loads only if save_model
    would write it back, node strings aside, for the model and schema loaded.
    """
    with reading(path, KeyError, TypeError, ValueError, OverflowError):
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != FORMAT_VERSION:
            raise SchemaMismatch(f"{path}: unsupported model format {version!r}")
        schema = FeatureSchema.from_json(json.dumps(payload["schema"]))
        cls = next((c for c, tag in _MODEL_TYPES.items() if tag == payload["model_type"]), None)
        if cls is None:
            raise SchemaMismatch(f"{path}: unknown model_type {payload['model_type']!r}")
        stored = payload["model"]
        loaded = {f.name: (_CASTS[f.type], stored[f.name]) for f in fields(cls)
                  if f.name != "trees"}
        for name, (cast, value) in loaded.items():
            try:
                loaded[name] = cast(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        if cls is ForestModel:
            loaded["trees"] = _unpacked_trees(stored, loaded["n_features"])
        else:
            if not np.isfinite(loaded["weights"]).all() or not np.isfinite(loaded["intercept"]):
                raise ValueError("intercept and weights must be finite")
            for name, (low, high) in FIT_RANGES.items():
                if not low <= loaded[name] <= high:
                    raise ValueError(f"{name} must be in [{low:g}, {high:g}], not {loaded[name]!r}")
        model = cls(**loaded)
        check_round_trip(payload, _payload(model, schema))
    if schema.width != model.width:
        raise SchemaMismatch(f"{path}: schema width does not match model width")
    return model, schema
