"""Versioned model persistence; the feature schema travels inside the file."""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import fields

import numpy as np

from ..errors import HiddenPopError, SchemaMismatch
from ..features import FeatureSchema
from ..ingest import atomic_open, reading
from .forest import DecisionTree, ForestModel
from .logistic import LogisticModel

FORMAT_VERSION = 2

# a model's file stores each field of its dataclass under the field's name, except a
# forest's trees: those are n_nodes plus one string per node field
_MODEL_TYPES = {LogisticModel: "logistic", ForestModel: "forest"}
# the JSON type of each stored value of a model but its trees and weights; a bool
# is never an integer or a number here
_INTEGER, _NUMBER = ("an integer", {int}), ("a number", {int, float})
_HEADER_TYPES = {"n_trees": _INTEGER, "mtry": _INTEGER, "min_leaf": _INTEGER, "seed": _INTEGER,
                 "n_features": _INTEGER, "iterations": _INTEGER,
                 "max_depth": ("an integer or null", {int, type(None)}),
                 "converged": ("true or false", {bool}), "intercept": _NUMBER,
                 "ridge_lambda": _NUMBER, "max_abs_gradient": _NUMBER, "oob_error": _NUMBER}
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


def _packed_trees(trees) -> dict:
    """Each tree's node count, and each node field of all trees as one base64 string."""
    packed = {"n_nodes": [len(t.feature) for t in trees]}
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


def _unpacked_trees(model: dict, n_trees: int, n_features: int) -> list:
    """A saved forest's trees, checked in one pass over all nodes to hold one binary tree each."""
    sizes = np.array(model["n_nodes"])
    if sizes.ndim != 1 or (sizes.size and sizes.dtype.kind not in "iu"):
        raise ValueError("n_nodes must be a list of integers")
    if not 1 <= n_trees == len(sizes):
        raise ValueError(f"n_trees is {n_trees} but the file holds {len(sizes)} trees")
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
    payload = {
        "format_version": FORMAT_VERSION,
        "schema": json.loads(schema.to_json()),
        "model_type": model_type(model),
    }
    payload["model"] = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "trees"}
    if isinstance(model, LogisticModel):
        payload["model"]["weights"] = model.weights.tolist()
    else:
        payload["model"].update(_packed_trees(model.trees))
    with atomic_open(path) as f:
        # streamed by the Python encoder, quick on a payload without long lists, so the
        # whole text is never held beside the node strings
        json.dump(payload, f, sort_keys=True)


def load_model(path):
    """Returns (model, schema); a file that is not a saved model raises DataError."""
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
        header = {f.name: stored[f.name] for f in fields(cls) if f.name not in ("trees", "weights")}
        for name, value in header.items():
            expected, types = _HEADER_TYPES[name]
            if type(value) not in types:
                raise TypeError(f"{name} must be {expected}, not {value!r}")
        if cls is LogisticModel:
            weights = stored["weights"]
            if type(weights) is not list or any(type(w) not in _NUMBER[1] for w in weights):
                raise TypeError("weights must be a list of numbers")
            model = LogisticModel(weights=np.array(weights, dtype=float), **header)
            if not np.isfinite(model.weights).all() or not np.isfinite(model.intercept):
                raise ValueError("intercept and weights must be finite")
        else:
            trees = _unpacked_trees(stored, header["n_trees"], header["n_features"])
            model = ForestModel(trees=trees, **header)
    if schema.width != model.width:
        raise SchemaMismatch(f"{path}: schema width does not match model width")
    return model, schema
