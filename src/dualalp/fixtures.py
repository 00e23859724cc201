"""On-disk fixture formats for MDPs and feature spaces (JSON documents).

MDP fixture::

    {"num_states": X, "num_actions": A,
     "loss": [... X*A values, x-major ...],
     "transitions": [{"x": 0, "a": 1, "next": 2, "p": 0.5}, ...]}

Feature fixture::

    {"normalize": true,
     "mu0": null | [... X*A values ...],
     "columns": [{"name": "optional", "entries": [{"x": 0, "a": 1, "value": 0.3}, ...]}, ...]}

``x``, ``a`` and ``next`` are integers in range, ``normalize`` (default
false) is a JSON bool, transitions, columns and entries are JSON objects, and
``loss``, ``mu0``, ``p`` and ``value`` are finite JSON numbers
(:func:`dualalp.mdp.is_number`). A missing or unreadable file, invalid UTF-8
or JSON, a missing field or a field of another type raises ConfigError; a
count or index that is not an integer in range raises InputShapeError
(:meth:`MdpModel.pair_index`).
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .features import FeatureSpace
from .mdp import MdpModel, is_number, is_number_list


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``, named ``what`` in the
    ConfigError of a path that is not a string or ``os.PathLike`` (``open``
    would take an integer for a file descriptor), a missing or unreadable file
    (a directory, say), invalid UTF-8 or JSON, or another JSON value."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{what} path must be a string, got {path!r}")
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"{what} cannot be read: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must hold a JSON object, got {doc!r}")
    return doc


def _objects(value, what: str, where: str) -> list:
    """``value`` if it is a list of JSON objects, else ConfigError."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {what} must be a list of JSON objects, got {value!r}")
    for k, item in enumerate(value):
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: {what} must be JSON objects, got {item!r} at index {k}")
    return value


def _number(value, what: str, where: str, at: str):
    """``value`` if it is a finite JSON number, else ConfigError: a string
    would be parsed, a bool read as 0 or 1, a list fail in scipy."""
    if not is_number(value):
        raise ConfigError(f"{where}: {what} must be finite JSON numbers, got {value!r} at {at}")
    return value


def _numbers(value, name: str, where: str) -> list:
    """``value`` if it is a list of finite JSON numbers
    (:func:`dualalp.mdp.is_number_list`), else ConfigError naming the first
    entry that is not one."""
    if is_number_list(value):
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {name} must be a list of finite JSON numbers, "
                          f"got {value!r}")
    k = next(k for k, v in enumerate(value) if not is_number(v))
    raise ConfigError(f"{where}: {name} entries must be finite JSON numbers, "
                      f"got {value[k]!r} at index {k}")


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as sorted, indented JSON and a newline; makes the parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_mdp_fixture(path) -> MdpModel:
    return mdp_from_dict(read_json(path, "mdp fixture"), where=str(path))


def mdp_from_dict(doc: dict, where: str = "mdp fixture") -> MdpModel:
    try:
        num_states, num_actions = doc["num_states"], doc["num_actions"]
        loss = _numbers(doc["loss"], "loss", where)
        records = [(rec["x"], rec["a"], rec["next"],
                    _number(rec["p"], "transition probabilities", where, f"transition {k}"))
                   for k, rec in enumerate(_objects(doc["transitions"], "transitions", where))]
    except KeyError as exc:
        raise ConfigError(f"{where} is missing required field {exc}") from exc
    return MdpModel.from_records(num_states, num_actions, records, loss)


def save_mdp_fixture(model: MdpModel, path) -> None:
    coo = model.transitions.tocoo()
    records = [{"x": int(i) // model.num_actions, "a": int(i) % model.num_actions,
                "next": int(j), "p": float(p)}
               for i, j, p in zip(coo.row, coo.col, coo.data)]
    doc = {"num_states": model.num_states, "num_actions": model.num_actions,
           "loss": [float(v) for v in model.loss], "transitions": records}
    write_json(doc, path)


def load_feature_fixture(path, model: MdpModel) -> FeatureSpace:
    return features_from_dict(read_json(path, "feature fixture"), model, where=str(path))


def features_from_dict(doc: dict, model: MdpModel,
                       where: str = "feature fixture") -> FeatureSpace:
    normalize = doc.get("normalize", False)
    if type(normalize) is not bool:
        raise ConfigError(f"{where}: normalize must be true or false, got {normalize!r}")
    rows, cols, data, names = [], [], [], []
    try:
        for j, column in enumerate(_objects(doc["columns"], "columns", where)):
            names.append(column.get("name", f"f{j}"))
            entries = _objects(column.get("entries", []), f"column {j} entries", where)
            for k, entry in enumerate(entries):
                rows.append(model.pair_index(entry["x"], entry["a"]))
                cols.append(j)
                data.append(_number(entry["value"], "phi entries", where,
                                    f"column {j} entry {k}"))
    except KeyError as exc:
        raise ConfigError(f"{where} is missing required field {exc}") from exc
    if not names:
        raise ConfigError(f"{where} has no feature columns")
    phi = sp.coo_matrix((np.asarray(data, dtype=float), (rows, cols)),
                        shape=(model.num_pairs, len(names)))
    mu0 = doc.get("mu0")
    if mu0 is not None:
        mu0 = _numbers(mu0, "mu0", where)
    return FeatureSpace(model, phi, mu0=mu0, normalize=normalize, names=names)


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
    write_json(doc, path)
