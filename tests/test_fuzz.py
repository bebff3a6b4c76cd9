"""No input ends in a traceback: property tests over the config, checkpoint and argument surfaces.

Hypothesis drives ``cli.main`` over (a) a valid tiny config with one field
replaced by a wrong type, null, NaN or an infinity, a negative number, zero, a
huge integer or a nested value, (b) a tiny checkpoint whose manifest entry,
shape, offset or embedded config is mutated, its sha256 recomputed, and (c) a
valid command line of each subcommand with one flag's value replaced by a
non-integer, a negative number, zero, a huge integer, an empty string, or a
path that is a file, a directory or missing. Every example must end in one of
the documented exit codes, with at most one line on stderr; an empty value
must exit 2 naming its flag. A huge integer is drawn only where it is
illegal (``steps`` and ``bench --steps`` take any count, and 2**31 steps are
slow, not wrong), so every example runs in well under a second.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
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


# A valid command line of each subcommand, flag by flag, on a config small enough for gradcheck.
MICRO = {**FAST, "h": 4, "d_ff": 4, "n_layers": 1, "t": 2, "t_prime": 2, "t_k": 2, "b": 1, "batch_size": 4}
COMMANDS = {
    "train": {"--config": "<config>", "--out": "<out>", "--seed": "0"},
    "eval": {"--checkpoint": "<checkpoint>", "--n": "8"},
    "bench": {"--config": "<config>", "--phase": "eval", "--steps": "3", "--warmup": "1", "--methods": "moe",
              "--seed": "0"},
    "gradcheck": {"--config": "<config>", "--seed": "0"},
    "analyze-embeddings": {"--checkpoint": "<checkpoint>", "--layer": "0", "--out": "<out>"},
    "compare": {"--config": "<config>", "--methods": "moe", "--seeds": "0", "--out": "<out>"},
}
LEGAL_FLAG_WHEN_HUGE = {("bench", "--steps")}


@st.composite
def one_flag_wrong(draw) -> list[str]:
    """A valid argument list with one flag's value replaced; a path is named by its kind, as ``<file>``."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = dict(COMMANDS[command])
    flag = draw(st.sampled_from(sorted(flags)))
    kinds = [
        st.sampled_from(["abc", "1.5", "1e3", "0x10", " 7"]),  # not an integer
        st.integers(-(2**70), -1).map(str),
        st.just("0"),
        st.just(""),
        st.sampled_from(["<file>", "<dir>", "<missing>"]),
    ]
    if (command, flag) not in LEGAL_FLAG_WHEN_HUGE:
        kinds.append(st.integers(2**31, 2**200).map(str))
    flags[flag] = draw(st.one_of(kinds))
    return [command, *(part for pair in flags.items() for part in pair)]


@pytest.fixture(scope="module")
def cli_paths(workdir) -> dict:
    """What each ``<kind>`` placeholder of ``one_flag_wrong`` names: files, a directory and a missing path."""
    config = workdir / "micro.json"
    config.write_text(json.dumps(MICRO))
    checkpoint = workdir / "micro.bin"
    save_checkpoint(build_model(ModelConfig.from_dict(MICRO)), str(checkpoint))
    text = workdir / "notes.txt"
    text.write_text("not a config\n")
    (workdir / "a_dir").mkdir()
    return {
        "<config>": str(config),
        "<checkpoint>": str(checkpoint),
        "<out>": str(workdir / "out"),
        "<file>": str(text),
        "<dir>": str(workdir / "a_dir"),
        "<missing>": str(workdir / "missing" / "deeper"),
    }


@settings(max_examples=200)
@given(argv=one_flag_wrong())
def test_command_line_with_one_wrong_flag_exits_cleanly(argv, cli_paths, workdir):
    # an --out of "abc" or "0" is a legal relative path: keep what it writes out of the checkout;
    # an --out of <missing> creates it, so remove it for the next example
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code, err = run([cli_paths.get(part, part) for part in argv])
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir / "missing", ignore_errors=True)
    assert_clean_exit(code, err)
    empty = [flag for flag, value in zip(argv[1::2], argv[2::2]) if value == ""]
    if empty:
        assert code == EXIT_CONFIG and empty[0] in err, err
