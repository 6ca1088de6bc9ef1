"""Deterministic plain-text report rendering and state-file parsing.

Reports are key/value trees: two-space indentation, scalar lists inline in
brackets, matrices as one bracketed row per line. Floats carry 17
significant digits and complex numbers use the re+imi form, so identical
inputs always produce byte-identical output.
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
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return format_complex(value)
    return str(value)


def _format_inline_list(values) -> str:
    return "[" + ", ".join(_format_scalar(v) for v in values) + "]"


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list, tuple, np.ndarray))


def _render_value(key: str, value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        if value.ndim <= 1:
            value = list(value)
        else:
            value = [list(row) for row in value]
    if _is_scalar(value):
        lines.append(f"{pad}{key}: {_format_scalar(value)}")
        return
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_value(k, v, indent + 1, lines)
        return
    seq = list(value)
    if all(_is_scalar(v) for v in seq):
        lines.append(f"{pad}{key}: {_format_inline_list(seq)}")
        return
    lines.append(f"{pad}{key}:")
    inner = "  " * (indent + 1)
    for item in seq:
        if isinstance(item, np.ndarray):
            item = [list(r) for r in item] if item.ndim > 1 else list(item)
        if isinstance(item, (list, tuple)) and all(_is_scalar(v) for v in item):
            lines.append(f"{inner}- {_format_inline_list(item)}")
        elif isinstance(item, (list, tuple)):
            # one matrix per dash: first row prefixed, later rows aligned
            for n, row in enumerate(item):
                if isinstance(row, np.ndarray):
                    row = list(row)
                prefix = "- " if n == 0 else "  "
                lines.append(f"{inner}{prefix}{_format_inline_list(row)}")
        elif isinstance(item, dict):
            first = True
            for k, v in item.items():
                sub: list[str] = []
                _render_value(k, v, 0, sub)
                for n, line in enumerate(sub):
                    prefix = "- " if first and n == 0 else "  "
                    lines.append(f"{inner}{prefix}{line}")
                first = False
        else:
            lines.append(f"{inner}- {_format_scalar(item)}")


def render(tree: dict) -> str:
    """Render a nested dict as the plain-text report document."""
    lines: list[str] = []
    for key, value in tree.items():
        _render_value(key, value, 0, lines)
    return "\n".join(lines) + "\n"


def matrix_tree(m: np.ndarray) -> list[list[complex]]:
    """Matrix as nested lists of complex scalars for rendering."""
    return [[complex(v) for v in row] for row in np.asarray(m, dtype=complex)]


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
