"""Binary checkpoints: an 8-byte magic, a little-endian uint64 manifest length, a UTF-8 JSON
manifest (its format number, each parameter's shape and offset, a sha256 of the payload, the
config snapshot and the step count), then the float64 payload that ``_layout`` lays out. Format 2
stores each layer's expert bank as two stacked parameters, ``l{i}.experts.w1`` and
``l{i}.experts.w2``; format 1 stored one pair per expert and is not read.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from itertools import accumulate

import numpy as np

from .config import ModelConfig
from .errors import ConfigurationError, IntegrityError
from .model import Model

MAGIC = b"HMOECKPT"
HEADER = struct.Struct("<8sQ")  # the magic and the manifest length
FORMAT = 2
REQUIRED_KEYS = ("format", "step", "config", "params", "sha256")


def _layout(model: Model) -> list[tuple[str, np.ndarray, int]]:
    """Each parameter's name, little-endian float64 buffer and payload offset: in name order, each
    right after the last. On a little-endian host each buffer is the parameter's own array."""
    names = sorted(model.params)
    bufs = [np.ascontiguousarray(model.params[name].data, dtype="<f8") for name in names]
    # the running byte counts from 0; zip drops the last, the payload's size
    return list(zip(names, bufs, accumulate((buf.nbytes for buf in bufs), initial=0)))


def save_checkpoint(model: Model, path: str, step: int = 0) -> None:
    """Write ``model`` to ``path`` with ``step``, atomically: into a new file beside it, then renamed.

    The payload is written straight from the layout's buffers: one pass hashes them, then
    each is written after the manifest, so a save holds no copy of the parameters."""
    layout, digest = _layout(model), hashlib.sha256()
    for _, buf, _ in layout:
        digest.update(buf)
    manifest = {
        "format": FORMAT,
        "step": step,
        "config": model.cfg.to_dict(),
        "params": [{"name": name, "shape": list(buf.shape), "offset": offset} for name, buf, offset in layout],
        "sha256": digest.hexdigest(),
    }
    blob = json.dumps(manifest).encode("utf-8")
    # write beside the target, then rename: a reader never sees a partial file
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(HEADER.pack(MAGIC, len(blob)) + blob)
            for _, buf, _ in layout:
                f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _checked_model(path: str, manifest) -> tuple[Model, list[tuple[str, np.ndarray, int]]]:
    """The unset model a manifest describes, and its layout, which the manifest must list exactly."""
    missing = [key for key in REQUIRED_KEYS if key not in manifest] if isinstance(manifest, dict) else REQUIRED_KEYS
    if missing:
        raise IntegrityError(f"{path}: manifest lacks {', '.join(missing)}")
    if manifest["format"] != FORMAT:
        raise IntegrityError(f"{path}: checkpoint format {json.dumps(manifest['format'])}, this version reads {FORMAT}")
    if type(manifest["params"]) is not list:
        raise IntegrityError(f"{path}: manifest params must be a list, got {type(manifest['params']).__name__}")
    try:
        if type(manifest["config"]) is not dict:
            raise ConfigurationError(f"a config must be a JSON object, got {type(manifest['config']).__name__}")
        model = Model(ModelConfig.from_dict(manifest["config"]), init=False)
    except ConfigurationError as e:
        raise IntegrityError(f"{path}: invalid embedded config: {e}") from e
    layout = _layout(model)
    unlisted = {name: (list(buf.shape), offset) for name, buf, offset in layout}
    for entry in manifest["params"]:
        if not (
            type(entry) is dict
            and type(entry.get("name")) is str
            and type(entry.get("shape")) is list
            and all(type(d) is int for d in entry["shape"])
            and type(entry.get("offset")) is int
            and entry["offset"] >= 0
        ):
            raise IntegrityError(
                f"{path}: manifest entry {json.dumps(entry)} needs a str name, "
                "a list-of-int shape and an int offset >= 0"
            )
        name = entry["name"]
        if name not in model.params:
            raise IntegrityError(f"{path}: manifest names unknown parameter {name!r}")
        if name not in unlisted:
            raise IntegrityError(f"{path}: manifest lists parameter {name!r} twice")
        shape, offset = unlisted.pop(name)
        if entry["shape"] != shape:
            raise IntegrityError(f"{path}: parameter {name!r} has shape {entry['shape']}, the model needs {shape}")
        if entry["offset"] != offset:
            raise IntegrityError(f"{path}: parameter {name!r} has offset {entry['offset']}, name order needs {offset}")
    if unlisted:
        raise IntegrityError(f"{path}: checkpoint lacks parameter(s) {', '.join(sorted(unlisted))}")
    return model, layout


def load_checkpoint(path: str) -> tuple[Model, int]:
    """Rebuild the model with bit-exact copies of the saved parameters, or raise ``IntegrityError``.
    One pass reads the file front to back: the header, the manifest (no longer than the file), then
    each parameter's bytes into it, in layout order, hashed as they land; no byte may follow the last."""
    try:
        with open(path, "rb") as f:
            head = f.read(HEADER.size)
            if len(head) < HEADER.size or head[: len(MAGIC)] != MAGIC:
                raise IntegrityError(f"{path}: not a checkpoint file")
            _, blob_len = HEADER.unpack(head)
            blob = f.read(min(blob_len, max(os.fstat(f.fileno()).st_size - HEADER.size, 0)))
            if len(blob) != blob_len:
                raise IntegrityError(f"{path}: truncated manifest")
            try:
                manifest = json.loads(str(blob, "utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise IntegrityError(f"{path}: corrupt manifest: {e}") from e
            model, layout = _checked_model(path, manifest)
            digest = hashlib.sha256()
            for name, buf, _ in layout:
                if f.readinto(buf) != buf.nbytes:
                    raise IntegrityError(f"{path}: payload truncated at parameter {name!r}")
                digest.update(buf)
                if buf is not model.params[name].data:  # a big-endian host reads into a copy
                    model.params[name].data[...] = buf
            if f.read(1):
                raise IntegrityError(f"{path}: bytes after the last parameter")
    except OSError as e:
        raise IntegrityError(f"{path}: cannot read checkpoint: {e.strerror}") from e
    if digest.hexdigest() != manifest["sha256"]:
        raise IntegrityError(f"{path}: payload checksum mismatch (truncated or corrupt)")
    return model, manifest["step"]
