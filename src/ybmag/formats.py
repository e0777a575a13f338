"""Parsing and serialisation of structure files.

Two formats are accepted: a plain-text one (the golden format used by the
tests, where parse followed by serialise is byte-identical) and a JSON
object with keys kind, n, dot, star, out, images.  The plain format:

    magma 2            bimagma 2          rmap 2
    0 0                0 1                0 0 -> 0 0
    1 1                0 1                0 1 -> 1 0
                                          1 0 -> 0 1
    function 3         (blank line)       1 1 -> 1 1
    1 2 0              0 0
                       1 1
    family 3
    0 1 2              (one line of images per member)
    1 2 0
"""

from __future__ import annotations

import json
from typing import Union

from .core import BiMagma, CayleyTable, FiniteFunction, RMap
from .families import FunctionFamily

Parsed = Union[CayleyTable, BiMagma, RMap, FiniteFunction, FunctionFamily]

KINDS = ("magma", "bimagma", "rmap", "function", "family")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


def _int_token(token: str, line: int, column: int, bound: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line, column) from None
    if not 0 <= value < bound:
        raise ParseError(f"entry {value} outside 0..{bound - 1}", line, column)
    return value


def _split_cols(line_text: str) -> list[tuple[str, int]]:
    tokens = []
    col = 1
    for piece in line_text.split(" "):
        if piece:
            tokens.append((piece, col))
        col += len(piece) + 1
    return tokens


def _parse_row(lines: list[str], idx: int, n: int) -> tuple[int, ...]:
    if idx >= len(lines):
        raise ParseError("unexpected end of input", len(lines) + 1)
    tokens = _split_cols(lines[idx])
    if len(tokens) != n:
        raise ParseError(f"expected {n} entries, got {len(tokens)}", idx + 1)
    return tuple(_int_token(tok, idx + 1, col, n) for tok, col in tokens)


def _parse_table(lines: list[str], start: int, n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    rows = []
    for i in range(n):
        rows.append(_parse_row(lines, start + i, n))
    return tuple(rows), start + n


def parse_structure(text: str) -> Parsed:
    """Parse either format, dispatching on the first non-blank character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_plain(text)


def _parse_plain(text: str) -> Parsed:
    if not text.strip():
        raise ParseError("empty input", 1)
    # a final newline ends the last line; blank lines before it are read as
    # written, since a table row on 0 points is blank
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    header = _split_cols(lines[0])
    if len(header) != 2 or header[0][0] not in KINDS:
        raise ParseError("header must be '<kind> <n>' with kind one of "
                         + ", ".join(KINDS), 1)
    kind = header[0][0]
    try:
        n = int(header[1][0])
    except ValueError:
        raise ParseError(f"carrier size {header[1][0]!r} is not an integer",
                         1, header[1][1]) from None
    if n < 0:
        raise ParseError("carrier size must be non-negative", 1, header[1][1])

    if kind == "magma":
        rows, end = _parse_table(lines, 1, n)
        _expect_end(lines, end)
        return CayleyTable(n, rows)
    if kind == "bimagma":
        dot, end = _parse_table(lines, 1, n)
        if end >= len(lines) or lines[end].strip():
            raise ParseError("expected a blank line between the two tables", end + 1)
        star, end = _parse_table(lines, end + 1, n)
        _expect_end(lines, end)
        return BiMagma(CayleyTable(n, dot), CayleyTable(n, star))
    if kind == "rmap":
        out = []
        idx = 1
        for x in range(n):
            for y in range(n):
                if idx >= len(lines):
                    raise ParseError("unexpected end of input", len(lines) + 1)
                tokens = _split_cols(lines[idx])
                if len(tokens) != 5 or tokens[2][0] != "->":
                    raise ParseError("expected 'x y -> u v'", idx + 1)
                xx = _int_token(tokens[0][0], idx + 1, tokens[0][1], n)
                yy = _int_token(tokens[1][0], idx + 1, tokens[1][1], n)
                if (xx, yy) != (x, y):
                    raise ParseError(f"expected inputs {x} {y} in row-major order", idx + 1)
                u = _int_token(tokens[3][0], idx + 1, tokens[3][1], n)
                v = _int_token(tokens[4][0], idx + 1, tokens[4][1], n)
                out.append((u, v))
                idx += 1
        _expect_end(lines, idx)
        return RMap(n, tuple(out))
    if kind == "function":
        images = _parse_row(lines, 1, n)
        _expect_end(lines, 2)
        return FiniteFunction(n, images)
    # family
    members = []
    idx = 1
    while idx < len(lines) and lines[idx].strip():
        members.append(FiniteFunction(n, _parse_row(lines, idx, n)))
        idx += 1
    _expect_end(lines, idx)
    if not members:
        raise ParseError("family needs at least one member line", 2)
    return FunctionFamily(n, tuple(members))


def _expect_end(lines: list[str], idx: int) -> None:
    for extra in range(idx, len(lines)):
        if lines[extra].strip():
            raise ParseError("unexpected trailing content", extra + 1)


def _parse_json(text: str) -> Parsed:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict) or "kind" not in data or "n" not in data:
        raise ParseError("object needs 'kind' and 'n' keys", 1)
    kind, n = data["kind"], data["n"]
    try:
        if kind == "magma":
            return CayleyTable(n, tuple(tuple(r) for r in data["dot"]))
        if kind == "bimagma":
            return BiMagma(CayleyTable(n, tuple(tuple(r) for r in data["dot"])),
                           CayleyTable(n, tuple(tuple(r) for r in data["star"])))
        if kind == "rmap":
            return RMap(n, tuple((u, v) for u, v in data["out"]))
        if kind == "function":
            return FiniteFunction(n, tuple(data["images"]))
        if kind == "family":
            return FunctionFamily(n, tuple(FiniteFunction(n, tuple(im))
                                           for im in data["images"]))
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(str(exc), 1) from None
    raise ParseError(f"unknown kind {kind!r}", 1)


def serialize(value: Parsed) -> str:
    """The plain-text form; parsing it back reproduces the value exactly."""
    if isinstance(value, CayleyTable):
        rows = "\n".join(" ".join(str(v) for v in row) for row in value.table)
        return f"magma {value.n}\n{rows}\n"
    if isinstance(value, BiMagma):
        dot = "\n".join(" ".join(str(v) for v in row) for row in value.dot.table)
        star = "\n".join(" ".join(str(v) for v in row) for row in value.star.table)
        return f"bimagma {value.n}\n{dot}\n\n{star}\n"
    if isinstance(value, RMap):
        lines = [f"rmap {value.n}"]
        for x in range(value.n):
            for y in range(value.n):
                u, v = value.apply(x, y)
                lines.append(f"{x} {y} -> {u} {v}")
        return "\n".join(lines) + "\n"
    if isinstance(value, FunctionFamily):
        lines = [f"family {value.n}"]
        lines += [" ".join(str(v) for v in f.images) for f in value.members]
        return "\n".join(lines) + "\n"
    if isinstance(value, FiniteFunction):
        images = " ".join(str(v) for v in value.images)
        return f"function {value.n}\n{images}\n"
    raise TypeError(f"cannot serialise {type(value).__name__}")


def serialize_json(value: Parsed) -> str:
    if isinstance(value, CayleyTable):
        data = {"kind": "magma", "n": value.n, "dot": [list(r) for r in value.table]}
    elif isinstance(value, BiMagma):
        data = {"kind": "bimagma", "n": value.n,
                "dot": [list(r) for r in value.dot.table],
                "star": [list(r) for r in value.star.table]}
    elif isinstance(value, RMap):
        data = {"kind": "rmap", "n": value.n, "out": [list(p) for p in value.out]}
    elif isinstance(value, FunctionFamily):
        data = {"kind": "family", "n": value.n,
                "images": [list(f.images) for f in value.members]}
    elif isinstance(value, FiniteFunction):
        data = {"kind": "function", "n": value.n, "images": list(value.images)}
    else:
        raise TypeError(f"cannot serialise {type(value).__name__}")
    return json.dumps(data)
