"""CSV and JSON input/output.

Floats are written with repr (shortest round-trip form), so identical data
always serializes to identical bytes; reproducibility tests depend on that.
"""

import json
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


def write_json(path, payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True)`` and a newline: one line,
    the encoding of the embedding CSV's header (``python -m json.tool``
    indents it for reading)."""
    with open(path, "w") as f:
        f.write(json.dumps(payload, sort_keys=True))
        f.write("\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError(f"cannot parse {path}: {exc}") from exc
