"""Checkpoint serialization: a human-readable manifest followed by a flat
little-endian float64 payload in one file.

Layout:

    semaffine-checkpoint v2
    step=<int>
    cfg.<key>=<value>           (model + training config snapshot)
    param <name> <d0,d1,..> <byte offset>
    payload <byte count>
    <raw little-endian float64 bytes>

The writer lays the parameters back to back, so each offset is the byte
total of the parameters before it and the last one ends where the payload
ends. The loader holds a file to that layout (save -> load -> save
reproduces it byte for byte) and rejects NaN or infinite entries, empty
shape entries and integers other than ASCII digits without a leading zero.
v2 stores each attention's q/k/v projections as one stacked (heads*d_k, in)
tensor per projection (``...q_proj.weight``); v1 stored one tensor per head
(``...q_proj.0.weight``) and is rejected.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, ascii_int
from .tensor import Tensor

MAGIC = b"semaffine-checkpoint v2"
V1_MAGIC = b"semaffine-checkpoint v1"


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    return str(v)


def save_checkpoint(path, params: list[tuple[str, Tensor]], config: dict, step: int) -> None:
    lines = [MAGIC.decode(), f"step={step}"]
    for key in sorted(config):
        lines.append(f"cfg.{key}={_format_value(config[key])}")
    offset = 0
    arrays = []
    for name, t in params:
        shape = ",".join(str(d) for d in t.shape)
        lines.append(f"param {name} {shape} {offset}")
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        arrays.append(arr)
        offset += arr.nbytes
    lines.append(f"payload {offset}")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for arr in arrays:
            f.write(memoryview(arr))


def _count(text: str, line_no: int, line: str) -> int:
    """A manifest integer as the writer writes it: ASCII digits, no leading zero; else a ParseError."""
    try:
        if text == "0" or not text.startswith("0"):
            return ascii_int(text)
    except ValueError:
        pass
    raise ParseError(f"expected a non-negative integer without leading zeros in manifest line {line!r}", line=line_no)


def load_checkpoint(path):
    """Returns (config dict[str, str], step, entries list[(name, shape, array)])."""
    raw = Path(path).read_bytes()
    if raw.startswith(V1_MAGIC):
        raise ParseError(f"{V1_MAGIC.decode()!r} file: per-head attention checkpoints are no longer "
                         f"readable, expected {MAGIC.decode()!r}", line=1)
    if not raw.startswith(MAGIC):
        raise ParseError(f"bad magic, expected {MAGIC.decode()!r}", line=1)
    marker = b"\npayload "
    pos = raw.find(marker)
    if pos < 0:
        raise ParseError("missing payload marker")
    header_end = raw.find(b"\n", pos + 1)
    if header_end < 0:
        raise ParseError("file ends in the payload line", line=raw.count(b"\n", 0, pos) + 2)
    try:
        header_lines = raw[:header_end].decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid UTF-8 in the manifest at byte {e.start}") from e
    payload = memoryview(raw)[header_end + 1:]

    step = None
    config: dict[str, str] = {}
    params = {}  # name -> (shape, array), in manifest order
    end = 0  # where the parameters so far end in the payload
    declared = None
    for i, line in enumerate(header_lines[1:], start=2):
        if line.startswith("step="):
            if step is not None:
                raise ParseError("duplicate step line", line=i)
            step = _count(line[len("step="):], i, line)
        elif line.startswith("cfg."):
            key, _, value = line[len("cfg."):].partition("=")
            if key in config:
                raise ParseError(f"duplicate config key {key!r}", line=i)
            config[key] = value
        elif line.startswith("param "):
            fields = line.split(" ")
            if len(fields) != 4:
                raise ParseError(f"malformed param line: {line!r}", line=i)
            _, name, shape_s, offset_s = fields
            if name in params:
                raise ParseError(f"duplicate parameter {name!r}", line=i)
            shape = tuple(_count(d, i, line) for d in shape_s.split(",")) if shape_s else ()  # "" is a scalar
            offset = _count(offset_s, i, line)
            if offset != end:
                raise ParseError(f"parameter {name} offset {offset}: the parameters before it end at {end}",
                                 line=i)
            nbytes = 8 * math.prod(shape)  # a Python int, so a huge shape cannot overflow
            if end + nbytes > len(payload):
                raise ParseError(f"parameter {name} shape {shape} runs past the {len(payload)}-byte payload",
                                 line=i)
            try:
                arr = np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=end).reshape(shape)
            except ValueError as e:  # an empty shape numpy cannot represent
                raise ParseError(f"parameter {name} shape {shape}: {e}", line=i) from e
            if not np.isfinite(arr).all():
                raise ParseError(f"parameter {name} has non-finite values", line=i)
            params[name] = (shape, arr.copy())
            end += nbytes
        elif line.startswith("payload "):
            declared = _count(line[len("payload "):], i, line)
            if end != len(payload):
                raise ParseError(f"the parameters end at byte {end} of a {len(payload)}-byte payload", line=i)
        else:
            raise ParseError(f"unrecognized manifest line: {line!r}", line=i)
    if step is None or declared is None:
        raise ParseError("manifest missing step or payload size")
    if declared != len(payload):
        raise ContractError(f"payload size mismatch: declared {declared}, found {len(payload)}")
    return config, step, [(name, *entry) for name, entry in params.items()]


def restore_parameters(params: list[tuple[str, Tensor]], entries) -> None:
    """Copy checkpoint arrays into live tensors; names and shapes must match."""
    by_name = {name: (shape, arr) for name, shape, arr in entries}
    for name, t in params:
        if name not in by_name:
            raise ContractError(f"checkpoint missing parameter {name}")
        shape, arr = by_name.pop(name)
        if shape != t.shape:
            raise ContractError(f"checkpoint shape {shape} for {name} does not match model {t.shape}")
        t.data[...] = arr
    if by_name:
        raise ContractError(f"checkpoint has {len(by_name)} unexpected parameters: {sorted(by_name)[:3]}...")
