"""Deterministic JSON and CSV emission for reports and record sidecars.

Floats are rendered with 17 significant digits so identical inputs produce
byte-identical files.  Non-finite values use the Python ``json`` tokens
(``Infinity``, ``-Infinity``, ``NaN``), which ``json.loads`` accepts.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text  # "-0" would read back as the integer 0


def _encode(obj, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_encode(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_encode(v, indent) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {_encode(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def dumps(obj) -> str:
    return _encode(obj, 0) + "\n"


def dump_json(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, header: list[str], rows) -> None:
    """Plain comma-separated output, '.' decimal, floats at 17 digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format_float(v) if isinstance(v, (float, np.floating)) else str(v) for v in row
            ) + "\n")
