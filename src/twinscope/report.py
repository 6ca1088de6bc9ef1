"""Deterministic plain-text report rendering and state-file parsing.

Reports are key/value trees: two-space indentation, scalar lists inline in
brackets, matrices as one bracketed row per line. A tree may hold numpy
arrays and scalars anywhere: `render` turns each into its nested Python
lists (one `tolist()`, the only conversion), so callers hand it library
values as they are. Floats carry 17 significant digits and complex numbers
use the re+imi form, so identical inputs always produce byte-identical
output.
"""

from __future__ import annotations

import numpy as np


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token: str) -> complex:
    """Parse the re+imi plain-text form (also accepts bare reals).

    Only a trailing i marks the imaginary part, so inf and nan parse as the
    values they name.
    """
    try:
        return complex(token[:-1] + "j" if token.endswith("i") else token)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {token!r}") from exc


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return format_complex(value)
    return str(value)


def _lines(value, dash: str = "- ") -> str | list[str]:
    """A scalar or a row of scalars as one inline string, anything else as lines.

    A dict gives one `key: value` line per key, a nested value indented under
    its key. Any other list gives each item one `dash`: a dict, a row, or the
    rows of a matrix; inside an item, rows take no dash of their own.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        lines = []
        for key, v in value.items():
            sub = _lines(v)
            if isinstance(sub, str):
                lines.append(f"{key}: {sub}")
            else:
                lines.append(f"{key}:")
                lines.extend("  " + line for line in sub)
        return lines
    if not isinstance(value, (list, tuple)):
        return _format_scalar(value)
    items = [_lines(v, "") for v in value]
    if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
        return "[" + ", ".join(items) + "]"
    lines = []
    for sub in items:
        for n, line in enumerate([sub] if isinstance(sub, str) else sub):
            lines.append((dash if n == 0 else " " * len(dash)) + line)
    return lines


def render(tree: dict) -> str:
    """Render a nested dict, whose leaves may be numpy arrays, as the plain-text report."""
    return "\n".join(_lines(tree)) + "\n"


def _parse_entries(path: str, tokens: list[str]) -> np.ndarray:
    """The tokens as one complex array, after rejecting a non-finite entry by name."""
    values = np.array([parse_complex(tok) for tok in tokens], dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{path}: entry {bad[0] + 1} is not finite: {tokens[bad[0]]!r}")
    return values


def parse_state_file(path: str) -> tuple[str, np.ndarray]:
    """Read a plain-text state file.

    The first line is `matrix 4 4` or `pure 4`; the remaining tokens are
    whitespace-separated complex entries in re+imi form, row-major for
    matrices, each finite. Returns ("matrix", 4x4 array) or ("pure", 4-vector).
    """
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    lines = content.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty state file")
    header = lines[0].split()
    tokens: list[str] = []
    for line in lines[1:]:
        tokens.extend(line.split())
    if header[:1] == ["matrix"]:
        if header != ["matrix", "4", "4"]:
            raise ValueError(f"{path}: expected header 'matrix 4 4', got {lines[0]!r}")
        if len(tokens) != 16:
            raise ValueError(f"{path}: expected 16 matrix entries, got {len(tokens)}")
        return "matrix", _parse_entries(path, tokens).reshape(4, 4)
    if header[:1] == ["pure"]:
        if header != ["pure", "4"]:
            raise ValueError(f"{path}: expected header 'pure 4', got {lines[0]!r}")
        if len(tokens) != 4:
            raise ValueError(f"{path}: expected 4 amplitudes, got {len(tokens)}")
        return "pure", _parse_entries(path, tokens)
    raise ValueError(f"{path}: unknown header {lines[0]!r}")
