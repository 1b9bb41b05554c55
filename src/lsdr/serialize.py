"""CSV and JSON input/output.

Floats are written with repr (shortest round-trip form), so identical data
always serializes to identical bytes; reproducibility tests depend on that.
"""

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .embedding import Embedding
from .errors import InputParseError

__all__ = [
    "read_point_cloud",
    "write_point_cloud",
    "write_embedding",
    "write_paired",
    "write_json",
    "read_json",
]


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_point_cloud(path) -> np.ndarray:
    """Read a numeric CSV; an optional single header row is skipped.

    Raises InputParseError with the offending line number on malformed rows.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc
    rows: list[list[float]] = []
    width = None
    start = 0
    content = [
        (lineno, line)
        for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not content:
        raise InputParseError(f"{path} contains no data rows (line 1)")
    first_tokens = content[0][1].split(",")
    if not all(_is_number(t.strip()) for t in first_tokens):
        start = 1  # header row
    for lineno, line in content[start:]:
        tokens = [t.strip() for t in line.split(",")]
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise InputParseError(
                f"{path}: expected {width} columns, found {len(tokens)} (line {lineno})"
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise InputParseError(f"{path}: non-numeric value (line {lineno}): {exc}") from exc
    if not rows:
        raise InputParseError(f"{path} contains no data rows (line 1)")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        row = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise InputParseError(f"{path}: non-finite value (line {content[start + row][0]})")
    return arr


def _format_rows(arr: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in arr)


def write_point_cloud(path, x: np.ndarray, header: list[str] | None = None) -> None:
    path = Path(path)
    cols = header or [f"x{i}" for i in range(x.shape[1])]
    path.write_text(",".join(cols) + "\n" + _format_rows(np.asarray(x, dtype=float)) + "\n")


def write_embedding(path, emb: Embedding) -> None:
    """Embedding CSV: a comment line with the parameters, then coordinates."""
    path = Path(path)
    meta = {"algorithm": emb.algorithm, **emb.params}
    cols = [f"y{i}" for i in range(emb.d)]
    path.write_text(
        "# " + json.dumps(meta, sort_keys=True) + "\n"
        + ",".join(cols) + "\n"
        + _format_rows(emb.coords) + "\n"
    )


def write_paired(path, x: np.ndarray, emb: Embedding) -> None:
    """Original coordinates side by side with embedding coordinates."""
    cols = [f"x{i}" for i in range(x.shape[1])] + [f"y{i}" for i in range(emb.d)]
    write_point_cloud(path, np.hstack([np.asarray(x, dtype=float), emb.coords]), cols)


# the types json encodes as scalars, exactly; values of any other type, such
# as a float subclass, take the general path
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _types(values) -> set:
    return set(map(type, values))


def _indented(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, flat parts from the C encoder.

    json's C encoder runs only without ``indent``. A value nested d levels
    deep encodes as it does alone, with every line after the first indented
    by 2d more spaces, so each container is encoded on its own and indented
    into its parent. Containers of scalars, and lists of non-empty dicts of
    scalars, go to the C encoder with the newline and indentation of their
    items as the item separator, and are then re-bracketed. A raw newline
    appears only between items, never inside a string (json escapes it), so
    these edits touch no string. A dict with a key that is not a string goes
    through ``json.dumps`` whole.
    """
    if not isinstance(value, (list, tuple, dict)) or not value:
        return json.dumps(value)
    if isinstance(value, dict) and _types(value) != {str}:
        return json.dumps(value, indent=2, sort_keys=True)
    if _types(value.values() if isinstance(value, dict) else value) <= _SCALARS:
        flat = json.dumps(value, sort_keys=True, separators=(",\n  ", ": "))
        return flat[0] + "\n  " + flat[1:-1] + "\n" + flat[-1]
    if isinstance(value, dict):
        body = ",\n".join(f"{json.dumps(key)}: {_indented(value[key])}" for key in sorted(value))
        return "{\n  " + body.replace("\n", "\n  ") + "\n}"
    if (
        _types(value) == {dict}
        and all(value)
        and _types(chain.from_iterable(value)) == {str}
        and _types(chain.from_iterable(map(dict.values, value))) <= _SCALARS
    ):
        flat = json.dumps(value, sort_keys=True, separators=(",\n    ", ": "))
        return "[\n  {\n    " + flat[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]"
    body = ",\n".join(map(_indented, value))
    return "[\n  " + body.replace("\n", "\n  ") + "\n]"


def write_json(path, payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    Path(path).write_text(_indented(payload) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError(f"cannot parse {path}: {exc}") from exc
