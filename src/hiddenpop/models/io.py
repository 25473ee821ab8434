"""Versioned model persistence; the feature schema travels inside the file."""

from __future__ import annotations

import json

import numpy as np

from ..errors import SchemaMismatch
from ..features import FeatureSchema
from ..ingest import atomic_open, reading
from .forest import DecisionTree, ForestModel
from .logistic import LogisticModel

FORMAT_VERSION = 1

_MODEL_TYPES = {LogisticModel: "logistic", ForestModel: "forest"}
# the saved fields of each model, in the order load_model reads them, besides a forest's trees
_FIELDS = {
    LogisticModel: ("intercept", "weights", "ridge_lambda", "converged", "iterations",
                    "max_abs_gradient"),
    ForestModel: ("n_trees", "mtry", "min_leaf", "max_depth", "seed", "n_features", "oob_error"),
}
# each node array and its dtype; only threshold may hold non-integers
_TREE_ARRAYS = {"feature": np.intp, "threshold": float, "left": np.intp, "right": np.intp,
                "counts": np.int64}


def model_type(model) -> str:
    """The `model_type` tag a model is saved under: "logistic" or "forest"."""
    try:
        return _MODEL_TYPES[type(model)]
    except KeyError:
        raise TypeError(f"unsupported model type {type(model).__name__}") from None


def _tree_from_dict(d: dict, n_features: int) -> DecisionTree:
    """A saved tree, checked so that its node arrays hold one binary tree."""
    arrays = []
    for name, dtype in _TREE_ARRAYS.items():
        values = np.array(d[name])  # no dtype: a cast would truncate 6.9 and parse "0.5"
        kinds = "iuf" if dtype is float else "iu"
        if values.size and values.dtype.kind not in kinds:
            raise ValueError(f"{name} must hold {'numbers' if dtype is float else 'integers'}")
        arrays.append(values.astype(dtype, copy=False))
    tree = DecisionTree(*arrays)
    n = tree.feature.size
    if n < 1 or any(a.shape != (n,) for a in (tree.feature, tree.threshold, tree.left, tree.right)):
        raise ValueError("feature, threshold, left and right must be lists of one equal length >= 1")
    if tree.counts.shape != (n, 2) or (tree.counts < 0).any():
        raise ValueError("counts must hold one pair of non-negative counts per node")
    inner = np.flatnonzero(tree.feature != -1)  # a leaf has feature -1
    if ((tree.feature[inner] < 0) | (tree.feature[inner] >= n_features)).any():
        raise ValueError(f"a split feature is outside 0..{n_features - 1}")
    for child in (tree.left[inner], tree.right[inner]):
        if ((child <= inner) | (child >= n)).any():
            raise ValueError("a child index does not point forward inside its tree")
    parents = np.bincount(np.concatenate([tree.left[inner], tree.right[inner]]), minlength=n)
    if (parents[1:] != 1).any():
        raise ValueError("a node other than the root is not the child of exactly one node")
    return tree


def save_model(path, model, schema: FeatureSchema):
    payload = {
        "format_version": FORMAT_VERSION,
        "schema": json.loads(schema.to_json()),
        "model_type": model_type(model),
    }
    payload["model"] = {name: getattr(model, name) for name in _FIELDS[type(model)]}
    if isinstance(model, LogisticModel):
        payload["model"]["weights"] = model.weights.tolist()
    else:
        payload["model"]["trees"] = [{a: getattr(t, a).tolist() for a in _TREE_ARRAYS}
                                     for t in model.trees]
    with atomic_open(path) as f:
        # json.dumps runs the C encoder; json.dump would stream through the Python one
        f.write(json.dumps(payload, sort_keys=True))


def load_model(path):
    """Returns (model, schema); a file that is not a saved model raises DataError."""
    with reading(path, KeyError, TypeError, ValueError, OverflowError):
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != FORMAT_VERSION:
            raise SchemaMismatch(f"{path}: unsupported model format {version!r}")
        schema = FeatureSchema.from_json(json.dumps(payload["schema"]))
        m = payload["model"]
        if payload["model_type"] == "logistic":
            model = LogisticModel(**{name: m[name] for name in _FIELDS[LogisticModel]})
            model.intercept = float(model.intercept)
            model.weights = np.array(model.weights, dtype=float)
            if model.weights.ndim != 1:
                raise ValueError("weights must be a list of numbers")
        elif payload["model_type"] == "forest":
            n_features = int(m["n_features"])
            model = ForestModel(trees=[_tree_from_dict(t, n_features) for t in m["trees"]],
                                **{name: m[name] for name in _FIELDS[ForestModel]})
            model.n_trees, model.n_features = int(model.n_trees), n_features
            if not 1 <= model.n_trees == len(model.trees):
                raise ValueError(f"n_trees is {model.n_trees} but the file holds "
                                 f"{len(model.trees)} trees")
        else:
            raise SchemaMismatch(f"{path}: unknown model_type {payload['model_type']!r}")
    if schema.width != model.width:
        raise SchemaMismatch(f"{path}: schema width does not match model width")
    return model, schema
