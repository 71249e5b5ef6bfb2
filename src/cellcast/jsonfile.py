"""Reading and writing the pipeline's JSON files. Every load error names
the file and the key, e.g. `bins.json: cells.7: holds a non-finite value`."""

from __future__ import annotations

import base64
import json
import math
from collections import Counter
from typing import Callable, TypeVar

import numpy as np

from .errors import MalformedFile, ValidationError

T = TypeVar("T")


def save(path: str, doc, indent: int | None = None) -> None:
    """Write doc as JSON plus a newline. json.dumps uses the C encoder
    when indent is None; json.dump(doc, fh) never does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=indent))
        fh.write("\n")


def _path_to(node, target, where: str = "") -> str | None:
    """The key path from node down to the object target, e.g.
    `synth.archetypes[0].`; None when target is not under node."""
    if node is target:
        return where
    if isinstance(node, dict):
        steps = [(f"{where}{name}.", value) for name, value in node.items()]
    elif isinstance(node, list):
        steps = [(f"{where.removesuffix('.')}[{i}].", value) for i, value in enumerate(node)]
    else:
        steps = []
    for step, value in steps:
        found = _path_to(value, target, step)
        if found is not None:
            return found
    return None


def load(path: str, parse: Callable[[dict], T], error: type[ValidationError]) -> T:
    """parse(document) of the JSON object in the file at path. Text that is
    not a JSON object, an object that repeats a key, and a MalformedFile
    raised by parse, become `error` with the path in front of the message."""
    repeated = []  # (object, its first repeated key)

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            counts = Counter(name for name, _ in pairs)
            repeated.append((obj, next(name for name, n in counts.items() if n > 1)))
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=pairs_hook)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None
    if repeated:
        obj, name = repeated[0]
        raise error(f"{path}: {_path_to(doc, obj)}{name}: repeated key")
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    try:
        return parse(doc)
    except MalformedFile as exc:
        raise error(f"{path}: {exc}") from None


def key(obj, name: str, where: str = ""):
    """obj[name]; names the key when obj is not an object or lacks it."""
    if not isinstance(obj, dict):
        raise MalformedFile(f"{where.rstrip('.')}: not a JSON object")
    if name not in obj:
        raise MalformedFile(f"{where}{name}: missing")
    return obj[name]


def expect(obj, fixed: dict, where: str = "") -> None:
    """obj holds every key of `fixed` with exactly its value and type."""
    for name, want in fixed.items():
        value = key(obj, name, where)
        if type(value) is not type(want) or value != want:
            shown = "true" if want is True else repr(want)
            raise MalformedFile(f"{where}{name}: {value!r}, expected {shown}")


def mapping(obj, name: str, where: str = "") -> dict:
    """obj[name], which must itself be a JSON object."""
    value = key(obj, name, where)
    if not isinstance(value, dict):
        raise MalformedFile(f"{where}{name}: not a JSON object")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def integer(obj, name: str, where: str = "") -> int:
    value = key(obj, name, where)
    if not _is_int(value):
        raise MalformedFile(f"{where}{name}: {value!r}, expected an integer")
    return value


def positive_int(obj, name: str, where: str = "") -> int:
    value = key(obj, name, where)
    if not _is_int(value) or value < 1:
        raise MalformedFile(f"{where}{name}: {value!r}, expected a positive integer")
    return value


def as_number(value) -> float:
    """A finite JSON number as a float; true, NaN and Infinity are none
    (TypeError), and an int beyond the float range raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError("not a finite number")
    return float(value)


def number(obj, name: str, where: str = "") -> float:
    value = key(obj, name, where)
    try:
        return as_number(value)
    except (TypeError, OverflowError):
        raise MalformedFile(f"{where}{name}: {value!r}, expected a finite number") from None


def to_blob(values: np.ndarray) -> str:
    """The float64 values as base64 of their little-endian bytes."""
    return base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")


def from_blob(value, name: str) -> np.ndarray:
    """The float64 values of a to_blob text, as a writable array; the
    caller checks their count and finiteness."""
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError):
        raise MalformedFile(f"{name}: not base64") from None
    if len(raw) % 8:
        raise MalformedFile(f"{name}: {len(raw)} bytes, not a whole number of float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def int_key(text: str, where: str) -> int:
    """An object key that must spell an integer id as str(int) writes it,
    so that no two keys of one object name the same id: `01`, ` 7`, `+1`
    and `1_0` are refused."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise MalformedFile(f"{where}{text}: key is not an integer id in canonical form")
    return value
