"""No input ends in a traceback: property tests over the config and checkpoint surfaces.

Hypothesis drives ``cli.main`` over (a) a valid tiny config with one field
replaced by a wrong type, null, NaN or an infinity, a negative number, zero, a
huge integer or a nested value, and (b) a tiny checkpoint whose manifest
entry, shape, offset or embedded config is mutated, its sha256 recomputed.
Every example must end in one of the documented exit codes, with at most one
line on stderr. A huge integer is drawn only for a field where it is illegal
(``steps`` takes any count, and a run of 2**31 steps is slow, not wrong), so
every example runs in well under a second.
"""

import contextlib
import hashlib
import io
import json
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermoe.checkpoint import MAGIC, save_checkpoint
from hypermoe.cli import EXIT_CONFIG, EXIT_INTEGRITY, EXIT_OK, EXIT_RUNTIME, main
from hypermoe.config import ModelConfig
from hypermoe.model import build_model

from test_cli import TINY

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_INTEGRITY}
FAST = {**TINY, "steps": 2}
BASES = [
    FAST,
    {**FAST, "layer_kind": "dense"},
    {**FAST, "layer_kind": "moe_share"},
    {**FAST, "task": "piecewise_regression"},
    {**FAST, "embedding_source": "compressed", "condition_on": "selected"},
]
FIELDS = [f.name for f in fields(ModelConfig)]
LEGAL_WHEN_HUGE = {"steps"}
HEAD = len(MAGIC) + 8


def bad_values(name: str):
    """A value of one of the kinds a hand-edited config gets wrong."""
    kinds = [
        st.sampled_from(["7", True, False, 2.5, [1], "dense"]) | st.text(max_size=4),  # wrong type
        st.none(),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.integers(-(2**40), -1) | st.floats(-1e300, -1e-300),
        st.sampled_from([0, 0.0]),
        st.sampled_from([{"value": 1}, {}, [[1, 2]], [1, [2]], [{"h": 16}]]),
    ]
    if name not in LEGAL_WHEN_HUGE:
        kinds.append(st.integers(2**31, 2**1100))
    return st.one_of(kinds)


@st.composite
def one_field_wrong(draw) -> dict:
    raw = dict(draw(st.sampled_from(BASES)))
    name = draw(st.sampled_from(FIELDS))
    raw[name] = draw(bad_values(name))
    return raw


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in EXIT_CODES
    assert err.count("\n") <= 1 and "Traceback" not in err, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600)
@given(raw=one_field_wrong())
def test_config_with_one_wrong_field_exits_cleanly(raw, workdir):
    path = workdir / "config.json"
    path.write_text(json.dumps(raw))
    code, err = run(["train", "--config", str(path), "--out", str(workdir / "run")])
    assert_clean_exit(code, err)


@pytest.fixture(scope="module")
def checkpoint_bytes(workdir) -> tuple[dict, bytes]:
    """The manifest and payload of a tiny untrained hypermoe checkpoint."""
    path = workdir / "base.bin"
    save_checkpoint(build_model(ModelConfig.from_dict(FAST)), str(path))
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", data[len(MAGIC) : HEAD])
    return json.loads(data[HEAD : HEAD + blob_len]), data[HEAD + blob_len :]


@st.composite
def manifest_edits(draw):
    """A function that mutates one manifest entry, shape or offset, or the embedded config."""
    target = draw(st.sampled_from(["entry", "key", "shape", "offset", "config", "config field"]))
    index = draw(st.integers(0, 10**6))
    if target == "shape":
        value = draw(st.lists(st.integers(-3, 2**40), max_size=4) | json_values)
    elif target == "offset":
        value = draw(st.integers(-(2**63), 2**70) | json_values)
    elif target == "config field":
        key = draw(st.sampled_from(FIELDS))
        value = draw(bad_values(key))
    else:
        value = draw(json_values)
    if target == "key":
        key = draw(st.sampled_from(["name", "shape", "offset"]))

    def edit(manifest: dict) -> None:
        params = manifest["params"]
        i = index % len(params)
        if target == "entry":
            params[i] = value
        elif target == "key":
            params[i][key] = value
        elif target in ("shape", "offset"):
            params[i][target] = value
        elif target == "config":
            manifest["config"] = value
        else:
            manifest["config"][key] = value

    return edit


@settings(max_examples=400)
@given(edit=manifest_edits(), command=st.sampled_from(["eval", "analyze-embeddings"]))
def test_mutated_checkpoint_exits_cleanly(edit, command, checkpoint_bytes, workdir):
    manifest, payload = checkpoint_bytes
    manifest = json.loads(json.dumps(manifest))
    edit(manifest)
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    blob = json.dumps(manifest).encode("utf-8")
    path = workdir / "mutated.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
    argv = [command, "--checkpoint", str(path)]
    argv += ["--n", "8"] if command == "eval" else ["--out", str(workdir / "emb")]
    code, err = run(argv)
    assert_clean_exit(code, err)
