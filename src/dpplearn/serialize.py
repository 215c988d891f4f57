"""File formats: instance records, config files, and training results.

Ground-set files are line-delimited JSON.  The first line is a header
object with ``"kind": "dpplearn-instances"`` plus free-form metadata
(config echo, true theta, seed); every following line is one instance:

    {"n_items": N,
     "quality_features": [[...], ...],      # N rows of d_q reals
     "similarity_features": [[...], ...],   # N rows of d_s reals
     "label": [i, ...] or null}

Config files are flat ``key = value`` text: one assignment per line,
values in JSON syntax, ``#`` comments allowed, dotted keys nesting into
sections (e.g. ``train.similarity.bandwidths = [0.5, 1.0]``).  Every key
must name a field of the config it sets; :func:`config_from_dict` rejects
unknown keys and values of the wrong JSON kind by their dotted name.

Training results are a single JSON document with the final parameters, a
config echo, ``converged``, ``iterations_used``, ``stop_reason`` (one of
``learning.STOP_REASONS``; a document without it reads as "tolerance"
when converged, else "budget") and the (iteration, objective) trace.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import DataFormatError
from .kernel import GroundSetInstance, ModelParams
from .learning import TrainConfig, TrainResult

INSTANCES_KIND = "dpplearn-instances"


def write_instances(path, instances, header=None):
    meta = {"kind": INSTANCES_KIND, **(header or {})}
    with open(path, "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for inst in instances:
            rec = {
                "n_items": inst.n_items,
                "quality_features": inst.quality_features.tolist(),
                "similarity_features": inst.similarity_features.tolist(),
                "label": list(inst.label) if inst.label is not None else None,
            }
            fh.write(json.dumps(rec) + "\n")


def read_instances(path):
    """Read one instance file; returns (header dict, list of instances)."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty instance file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: bad header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != INSTANCES_KIND:
        raise DataFormatError(
            f"{path}: header must be an object with kind={INSTANCES_KIND!r}"
        )
    instances = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            inst = GroundSetInstance(
                np.asarray(rec["quality_features"], dtype=float),
                np.asarray(rec["similarity_features"], dtype=float),
                rec.get("label"),
            )
            if inst.n_items != rec["n_items"]:
                raise DataFormatError(
                    f"n_items {rec['n_items']} does not match "
                    f"{inst.n_items} feature rows"
                )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}:{lineno}: bad record: {exc}") from exc
        instances.append(inst)
    return header, instances


def parse_config(path):
    """Parse a flat key = value config file into a nested dict."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                parsed = json.loads(value.strip())
            except json.JSONDecodeError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: value for {key!r} is not valid JSON: {exc}"
                ) from exc
            node = out
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise DataFormatError(f"{path}:{lineno}: {key!r} nests into a scalar")
            node[parts[-1]] = parsed
    return out


# The JSON value types a config field accepts, by the type of its default
_ACCEPTED = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
             tuple: (list,)}


def config_from_dict(default, data, prefix=""):
    """``default`` with the values that the nested dict ``data`` sets.

    ``default`` is a config dataclass instance (or a plain dict of
    defaults); keys absent from ``data`` keep its values, and sections
    recurse into its nested configs.  Raises DataFormatError naming the
    dotted key of an unknown key, or of a value whose JSON type the
    default's type does not accept (``_ACCEPTED``).
    """
    if not isinstance(data, dict):
        raise DataFormatError(f"config key {prefix.rstrip('.')!r} must be a section")
    # a dataclass's fields are its instance attributes
    current = default if isinstance(default, dict) else vars(default)
    values = {}
    for key, value in data.items():
        name = prefix + key
        if key not in current:
            raise DataFormatError(f"unknown config key {name!r}")
        values[key] = _config_value(current[key], value, name)
    if isinstance(default, dict):
        return {**default, **values}
    return dataclasses.replace(default, **values)


def _config_value(default, value, name):
    if dataclasses.is_dataclass(default):
        return config_from_dict(default, value, name + ".")
    accepted = _ACCEPTED[type(default)]
    if type(value) not in accepted:
        kinds = " or ".join(t.__name__ for t in accepted)
        raise DataFormatError(f"config key {name!r} must be {kinds}, got {value!r}")
    return tuple(value) if isinstance(default, tuple) else value


def write_train_result(path, result, config):
    doc = {
        "kind": "dpplearn-train-result",
        "params": {
            "theta": result.params.theta.tolist(),
            "kernel_weights": result.params.kernel_weights.tolist(),
        },
        "config": dataclasses.asdict(config),
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "stop_reason": result.stop_reason,
        "objective_trace": [
            [i + 1, v] for i, v in enumerate(result.objective_trace)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_train_result(path):
    """Returns (ModelParams, TrainConfig, TrainResult)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        params = ModelParams(
            np.asarray(doc["params"]["theta"], dtype=float),
            np.asarray(doc["params"]["kernel_weights"], dtype=float),
        )
        config = config_from_dict(TrainConfig(), doc["config"], "config.")
        trace = tuple(v for _, v in doc["objective_trace"])
        result = TrainResult(params, trace, doc["converged"], doc["iterations_used"],
                             doc.get("stop_reason"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad train-result document: {exc}") from exc
    return params, config, result


def write_predictions(path, subsets):
    with open(path, "w") as fh:
        for idx, y in enumerate(subsets):
            fh.write(json.dumps({"index": idx, "subset": list(y)}) + "\n")


def read_predictions(path):
    subsets = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                subsets.append(tuple(int(i) for i in rec["subset"]))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad prediction: {exc}") from exc
    return subsets
