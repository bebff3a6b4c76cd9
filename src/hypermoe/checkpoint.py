"""Binary checkpoints: a JSON manifest followed by a raw float64 payload.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest, then every parameter's float64 little-endian buffer at the offset
the manifest records. The manifest carries its format number, a sha256 of
the payload, the config snapshot, and the step count. Format 2 stores each
layer's expert bank as two stacked parameters, ``l{i}.experts.w1`` and
``l{i}.experts.w2``; format 1 stored one pair per expert and is not read.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .config import ModelConfig
from .errors import ConfigurationError, IntegrityError
from .model import Model

MAGIC = b"HMOECKPT"
FORMAT = 2


def save_checkpoint(model: Model, path: str, step: int = 0) -> None:
    """Write ``model`` to ``path`` with ``step``, atomically: into a new file beside it, then renamed.

    The payload is written straight from the parameters' buffers: one pass hashes them, then
    each is written after the manifest, so a save holds no copy of the parameters."""
    names = sorted(model.params)
    bufs = [np.ascontiguousarray(model.params[name].data, dtype="<f8") for name in names]
    entries, offset, digest = [], 0, hashlib.sha256()
    for name, buf in zip(names, bufs):
        entries.append({"name": name, "shape": list(model.params[name].shape), "offset": offset})
        digest.update(buf)
        offset += buf.nbytes
    manifest = {
        "format": FORMAT,
        "step": step,
        "config": model.cfg.to_dict(),
        "params": entries,
        "sha256": digest.hexdigest(),
    }
    blob = json.dumps(manifest).encode("utf-8")
    # write beside the target, then rename: a reader never sees a partial file
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for buf in bufs:
                f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


REQUIRED_KEYS = ("format", "step", "config", "params", "sha256")


def _read(path: str) -> tuple[dict, memoryview]:
    """Read a checkpoint file once; return its manifest and a view of its payload."""
    try:
        with open(path, "rb") as f:
            data = memoryview(f.read())
    except OSError as e:
        raise IntegrityError(f"{path}: cannot read checkpoint: {e.strerror}") from e
    head = len(MAGIC) + 8
    if len(data) < head or data[: len(MAGIC)] != MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint file")
    (blob_len,) = struct.unpack("<Q", data[len(MAGIC) : head])
    blob = data[head : head + blob_len]
    if len(blob) != blob_len:
        raise IntegrityError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(str(blob, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"{path}: corrupt manifest: {e}") from e
    return manifest, data[head + blob_len :]


def load_checkpoint(path: str) -> tuple[Model, int]:
    """Rebuild the model; parameters are bit-exact copies of the saved ones.

    Every parameter of the model must be in the checkpoint once, with the
    model's shape, and the checkpoint may name no other; otherwise no model
    is returned.
    """
    manifest, payload = _read(path)
    missing = [key for key in REQUIRED_KEYS if key not in manifest] if isinstance(manifest, dict) else REQUIRED_KEYS
    if missing:
        raise IntegrityError(f"{path}: manifest lacks {', '.join(missing)}")
    if manifest["format"] != FORMAT:
        raise IntegrityError(f"{path}: checkpoint format {json.dumps(manifest['format'])}, this version reads {FORMAT}")
    if hashlib.sha256(payload).hexdigest() != manifest["sha256"]:
        raise IntegrityError(f"{path}: payload checksum mismatch (truncated or corrupt)")
    if type(manifest["params"]) is not list:
        raise IntegrityError(f"{path}: manifest params must be a list, got {type(manifest['params']).__name__}")
    try:
        if type(manifest["config"]) is not dict:
            raise ConfigurationError(f"a config must be a JSON object, got {type(manifest['config']).__name__}")
        model = Model(ModelConfig.from_dict(manifest["config"]), init=False)
    except ConfigurationError as e:
        raise IntegrityError(f"{path}: invalid embedded config: {e}") from e

    loaded = set()
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
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if name in loaded:
            raise IntegrityError(f"{path}: manifest lists parameter {name!r} twice")
        if name not in model.params:
            raise IntegrityError(f"{path}: manifest names unknown parameter {name!r}")
        param = model.params[name]
        if shape != param.shape:
            raise IntegrityError(
                f"{path}: parameter {name!r} has shape {list(shape)}, the model needs {list(param.shape)}"
            )
        raw = payload[offset : offset + param.size * 8]
        if len(raw) != param.size * 8:
            raise IntegrityError(f"{path}: payload truncated at parameter {name!r}")
        param.data[...] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        loaded.add(name)
    absent = sorted(set(model.params) - loaded)
    if absent:
        raise IntegrityError(f"{path}: checkpoint lacks parameter(s) {', '.join(absent)}")
    return model, manifest["step"]
