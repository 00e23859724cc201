"""On-disk fixture formats for MDPs and feature spaces (JSON documents).

MDP fixture::

    {"num_states": X, "num_actions": A,
     "loss": [... X*A values, x-major ...],
     "transitions": [{"x": 0, "a": 1, "next": 2, "p": 0.5}, ...]}

Feature fixture::

    {"normalize": true,
     "mu0": null | [... X*A values ...],
     "columns": [{"name": "optional", "entries": [{"x": 0, "a": 1, "value": 0.3}, ...]}, ...]}
"""
from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .features import FeatureSpace
from .mdp import MdpModel


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where} is missing required field {key!r}")
    return doc[key]


def load_mdp_fixture(path) -> MdpModel:
    with open(path) as handle:
        doc = json.load(handle)
    return mdp_from_dict(doc, where=str(path))


def mdp_from_dict(doc: dict, where: str = "mdp fixture") -> MdpModel:
    num_states = int(_require(doc, "num_states", where))
    num_actions = int(_require(doc, "num_actions", where))
    loss = np.asarray(_require(doc, "loss", where), dtype=float)
    records = [(rec["x"], rec["a"], rec["next"], rec["p"])
               for rec in _require(doc, "transitions", where)]
    return MdpModel.from_records(num_states, num_actions, records, loss)


def save_mdp_fixture(model: MdpModel, path) -> None:
    coo = model.transitions.tocoo()
    records = [{"x": int(i) // model.num_actions, "a": int(i) % model.num_actions,
                "next": int(j), "p": float(p)}
               for i, j, p in zip(coo.row, coo.col, coo.data)]
    doc = {"num_states": model.num_states, "num_actions": model.num_actions,
           "loss": [float(v) for v in model.loss], "transitions": records}
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_feature_fixture(path, model: MdpModel) -> FeatureSpace:
    with open(path) as handle:
        doc = json.load(handle)
    return features_from_dict(doc, model, where=str(path))


def features_from_dict(doc: dict, model: MdpModel,
                       where: str = "feature fixture") -> FeatureSpace:
    columns = _require(doc, "columns", where)
    if not columns:
        raise ConfigError(f"{where} has no feature columns")
    rows, cols, data = [], [], []
    names = []
    for j, column in enumerate(columns):
        names.append(column.get("name", f"f{j}"))
        for entry in column.get("entries", []):
            rows.append(int(entry["x"]) * model.num_actions + int(entry["a"]))
            cols.append(j)
            data.append(float(entry["value"]))
    phi = sp.coo_matrix((data, (rows, cols)),
                        shape=(model.num_pairs, len(columns)))
    mu0 = doc.get("mu0")
    if mu0 is not None:
        mu0 = np.asarray(mu0, dtype=float)
    return FeatureSpace(model, phi, mu0=mu0,
                        normalize=bool(doc.get("normalize", False)), names=names)


def save_feature_fixture(fs: FeatureSpace, path) -> None:
    """Write a feature space's columns back out (entries as stored, i.e. after
    any construction-time normalization)."""
    csc = fs.phi.tocsc()
    columns = []
    for j in range(fs.dim):
        start, end = csc.indptr[j], csc.indptr[j + 1]
        entries = [{"x": int(i) // fs.model.num_actions,
                    "a": int(i) % fs.model.num_actions, "value": float(v)}
                   for i, v in zip(csc.indices[start:end], csc.data[start:end])]
        name = fs.names[j] if fs.names else f"f{j}"
        columns.append({"name": name, "entries": entries})
    mu0 = None if not fs.mu0.any() else [float(v) for v in fs.mu0]
    doc = {"normalize": False, "mu0": mu0, "columns": columns}
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
