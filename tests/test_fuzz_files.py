"""Random and mutated annotation files through ``validate`` and
``reliability``, in-process: every input ends in a report or in a typed
error with its documented exit code (0, 2, 3 or 4), never in
``"Unexpected"``."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from relistab import LabelSchema, save_schema, write_annotations_csv, write_annotations_jsonl
from relistab.cli import main

from conftest import make_rounds

SCHEMA = LabelSchema("t", ("x", "y"), "interval", {"x": 0.0, "y": 1.0})


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """A small valid file of each format, and the interval schema."""
    root = tmp_path_factory.mktemp("fuzz")
    aset = make_rounds(
        {"a": {1: ["x", "y", "y"], 2: ["x", "y", "x"]},
         "b": {1: ["x", "y", "x"], 2: ["y", "y", "x"]}},
        timestamps={1: 1_600_000_000.0, 2: 1_600_086_400.0},
    )
    write_annotations_csv(aset, root / "base.csv")
    write_annotations_jsonl(aset, root / "base.jsonl")
    save_schema(SCHEMA, root / "schema.json")
    return root


#: one edit of a file's bytes: (kind, position in [0, 1), payload)
EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "duplicate line", "truncate"]),
    st.floats(0, 1, exclude_max=True),
    st.binary(min_size=1, max_size=4) | st.sampled_from(
        [b",", b"\n", b"\r", b'"', b"{", b"}", b":", b"\x00", b"\xff", b"\xc3", b"nan",
         b"-1", b"1.5", b"Z", b"\n\n", b" "]),
)


def mutated(data: bytes, edits) -> bytes:
    for kind, where, payload in edits:
        at = int(where * (len(data) + 1))
        if kind == "replace":
            data = data[:at] + payload + data[at + len(payload):]
        elif kind == "insert":
            data = data[:at] + payload + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + len(payload):]
        elif kind == "duplicate line":
            lines = data.splitlines(keepends=True)
            if lines:
                line = lines[min(at, len(lines) - 1)]
                data = b"".join(lines) + line
        else:
            data = data[:at]
    return data


def run_subcommands(path, schema):
    for subcommand in ("validate", "reliability"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([subcommand, "--annotations", str(path), "--schema", str(schema)])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code:
            assert json.loads(err.getvalue().strip().splitlines()[-1])["error"]["code"] \
                != "Unexpected"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=120)
@given(data=st.one_of(
    st.tuples(st.just("mutated"), st.lists(EDIT, min_size=1, max_size=4)),
    st.tuples(st.just("random"), st.binary(max_size=200)),
))
def test_any_annotation_bytes_end_in_a_typed_outcome(base_files, fmt, data):
    kind, payload = data
    base = (base_files / f"base.{fmt}").read_bytes()
    path = base_files / f"fuzzed.{fmt}"
    path.write_bytes(mutated(base, payload) if kind == "mutated" else payload)
    run_subcommands(path, base_files / "schema.json")
