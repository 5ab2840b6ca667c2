"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation-type errors exit with 1,
numeric/runtime failures with 2.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np


class SemaffineError(Exception):
    """Base class for all package errors."""


class ShapeError(SemaffineError, ValueError):
    """Operand dimensions are incompatible; the message names both shapes."""


class ContractError(SemaffineError, ValueError):
    """A documented precondition was violated (empty input, non-scalar loss, ...)."""


class ConfigError(SemaffineError, ValueError):
    """Invalid or unknown configuration key/value."""


class ParseError(SemaffineError, ValueError):
    """Malformed on-disk artifact; carries a line number when available."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(SemaffineError, RuntimeError):
    """Non-finite values detected during computation."""


def require_finite(config) -> None:
    """ConfigError naming the first float field of a config dataclass that is NaN or infinite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def as_array(values, what: str) -> np.ndarray:
    """``np.asarray(values)``; a ragged nest of sequences is a ShapeError, not numpy's ValueError."""
    try:
        return np.asarray(values)
    except ValueError as e:  # "... inhomogeneous shape after 1 dimensions ..."
        raise ShapeError(f"{what}: ragged sequences ({e})") from None


def int_array(values, high: int, what: str, n: int | None = None) -> np.ndarray:
    """``values`` as a 1-d int64 array (of ``n`` entries unless None) with
    every entry in [0, high): ShapeError for another shape, ContractError for
    a non-integer dtype (float, bool) or an entry out of range, so no value
    is truncated. An empty array of any dtype has no value to truncate."""
    array = as_array(values, what)
    if array.ndim != 1 or n is not None and array.size != n:
        raise ShapeError(f"{what}: shape {array.shape}, expected ({'n' if n is None else n},)")
    if array.size and array.dtype.kind not in "iu":
        raise ContractError(f"{what}: dtype {array.dtype} is not an integer dtype")
    if array.size and (array.min() < 0 or array.max() >= high):
        raise ContractError(f"{what}: entry out of range [0, {high})")
    return array.astype(np.int64, copy=False)


def ascii_int(text: str, signed: bool = False) -> int:
    """ASCII decimal digits, after one ``-`` when ``signed``; ValueError for anything
    else, such as the Unicode digits, ``_``, ``+`` and spaces that ``int()`` accepts.
    (On an ASCII string, ``isdigit()`` admits exactly 0-9.)"""
    if not (text.isascii() and (text.isdigit() or signed and text[:1] == "-" and text[1:].isdigit())):
        raise ValueError(f"expected {'an' if signed else 'a non-negative'} ASCII decimal integer, got {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """``float(text)`` for ASCII text without ``_`` or spaces; ValueError for
    anything else, such as the Unicode digits, ``_`` and spaces that
    ``float()`` accepts."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"expected an ASCII decimal number, got {text!r}")
    return float(text)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; undecodable bytes raise ParseError."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path}: invalid UTF-8 at byte {e.start}", line=line) from e
