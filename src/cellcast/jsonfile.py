"""Reading and writing the pipeline's JSON files. Every load error names
the file and the key, e.g.
`clusters.json: assignment.7: 3, expected a cluster in 0..2`."""

from __future__ import annotations

import json
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


def load(path: str, parse: Callable[[dict], T], error: type[ValidationError]) -> T:
    """parse(document) of the JSON object in the file at path. Text that is
    not a JSON object, and a MalformedFile raised by parse, become `error`
    with the path in front of the message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None
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


def number(obj, name: str, where: str = "") -> float:
    value = key(obj, name, where)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise MalformedFile(f"{where}{name}: {value!r}, expected a number")
    return float(value)


def finite_array(value, name: str, ndim: int) -> np.ndarray:
    """value as a float64 array of ndim dimensions holding finite numbers."""
    try:
        arr = np.array(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf":
        raise MalformedFile(f"{name}: not a {ndim}-d list of numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise MalformedFile(f"{name}: holds a non-finite value")
    return arr


def int_key(text: str, where: str) -> int:
    """An object key that must spell an integer id."""
    try:
        return int(text)
    except ValueError:
        raise MalformedFile(f"{where}{text}: key is not an integer id") from None
