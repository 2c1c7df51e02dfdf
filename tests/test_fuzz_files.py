"""Random and mutated input files through the subcommands that read them,
in-process: annotation files through ``validate`` and ``reliability``, a
schema through ``validate``, a rationalisation file through ``phi``, a
simulation config through ``simulate`` and prior reports through
``report``. Every input ends in a report or in a typed error with its
documented exit code (0, 2, 3 or 4), never in ``"Unexpected"``."""

import contextlib
import io
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relistab import (
    LabelSchema,
    RationalisationRecord,
    SimConfig,
    save_schema,
    write_annotations_csv,
    write_annotations_jsonl,
    write_rationalisations_csv,
)
from relistab.cli import main
from relistab.errors import RelistabError
from relistab.simulator import load_sim_config

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
    write_rationalisations_csv(
        [RationalisationRecord("i0", "r0", "subjective"),
         RationalisationRecord("i1", "r0", "ambiguous"),
         RationalisationRecord("i2", "r1", "difficult")],
        root / "base.why.csv",
    )
    (root / "base.sim.json").write_text(json.dumps(SimConfig(
        n_annotators=4, items_per_cause={"straightforward": 2, "subjective": 2},
        categories=("x", "y"), n_groups=2, rounds=2, seed=3).to_json()))
    for name, argv in (("validate", ()), ("stability", ("--seed", "1", "--permutation", "5"))):
        out = root / f"{name}.out"
        assert main([name, "--annotations", str(root / "base.csv"),
                     "--schema", str(root / "schema.json"), "--out", str(out), *argv]) == 0
        (root / f"base.{name}.json").write_bytes((out / "report.json").read_bytes())
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


def run_typed(*argv):
    """Run the CLI; it must end in a report or a typed error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3, 4), err.getvalue()
    if code:
        assert json.loads(err.getvalue().strip().splitlines()[-1])["error"]["code"] \
            != "Unexpected"


def run_subcommands(path, schema):
    for subcommand in ("validate", "reliability"):
        run_typed(subcommand, "--annotations", path, "--schema", schema)


#: a mutation of a file's bytes, or random bytes in its place
FUZZED = st.one_of(
    st.tuples(st.just("mutated"), st.lists(EDIT, min_size=1, max_size=4)),
    st.tuples(st.just("random"), st.binary(max_size=200)),
)

#: any JSON value, NaN and huge numbers included; DELETE removes the key
DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

#: for JSON files also: one value somewhere in the document replaced or removed
FUZZED_JSON = FUZZED | st.tuples(
    st.just("edited"),
    st.tuples(st.lists(st.integers(0, 30), min_size=1, max_size=4),
              JSON_VALUES | st.just(DELETE)),
)


def edited(data: bytes, path, value) -> bytes:
    """The JSON document ``data`` with the value that ``path`` leads to (an
    index into the keys or items at each level) replaced by ``value``."""
    doc = json.loads(data)
    node = doc
    for step, choice in enumerate(path):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = keys[choice % len(keys)]
        if step < len(path) - 1 and isinstance(node[key], (dict, list)):
            node = node[key]
        elif value is DELETE:
            del node[key]
            break
        else:
            node[key] = value
            break
    return json.dumps(doc).encode()


def fuzzed_copy(base_files, name, data):
    """The path of a fuzzed copy of the base file ``name``."""
    kind, payload = data
    base = (base_files / name).read_bytes()
    path = base_files / f"fuzzed-{name}"
    if kind == "mutated":
        path.write_bytes(mutated(base, payload))
    elif kind == "edited":
        path.write_bytes(edited(base, *payload))
    else:
        path.write_bytes(payload)
    return path


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=120)
@given(data=FUZZED)
def test_any_annotation_bytes_end_in_a_typed_outcome(base_files, fmt, data):
    run_subcommands(fuzzed_copy(base_files, f"base.{fmt}", data), base_files / "schema.json")


@settings(max_examples=100)
@given(data=FUZZED_JSON)
def test_any_schema_bytes_end_in_a_typed_outcome(base_files, data):
    schema = fuzzed_copy(base_files, "schema.json", data)
    run_typed("validate", "--annotations", base_files / "base.csv", "--schema", schema)


@settings(max_examples=80)
@given(data=FUZZED)
def test_any_rationalisation_bytes_end_in_a_typed_outcome(base_files, data):
    why = fuzzed_copy(base_files, "base.why.csv", data)
    run_typed("phi", "--annotations", base_files / "base.csv",
              "--schema", base_files / "schema.json", "--rationalisations", why,
              "--seed", "1", "--permutation", "5")


@settings(max_examples=100)
@given(data=FUZZED_JSON)
@example(data=("edited", ([16, 0], 251_802_300_800)))
def test_any_sim_config_bytes_end_in_a_typed_outcome(base_files, tmp_path_factory, data):
    config = fuzzed_copy(base_files, "base.sim.json", data)
    try:
        sim = load_sim_config(config)
    except (RelistabError, OSError):
        pass
    else:
        # a valid but large config is only slow; it says nothing here
        size = sim.n_annotators * sum(sim.items_per_cause.values()) * sim.rounds
        assume(size <= 2000 and sim.n_groups <= 50 and len(sim.categories) <= 50)
    run_typed("simulate", "--sim-config", config, "--end-to-end",
              "--out", tmp_path_factory.mktemp("sim"))


@pytest.mark.parametrize("kind", ["validate", "stability"])
@settings(max_examples=80)
@given(data=FUZZED_JSON)
def test_any_report_bytes_end_in_a_typed_outcome(base_files, tmp_path_factory, kind, data):
    report = fuzzed_copy(base_files, f"base.{kind}.json", data)
    other = base_files / f"base.{'stability' if kind == 'validate' else 'validate'}.json"
    run_typed("report", "--inputs", report, other, "--out", tmp_path_factory.mktemp("bundle"))
