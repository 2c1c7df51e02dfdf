"""Seeded input generation and the command sequence of each workload.

The generator is the benchmark's own: it shares no code with the package,
so a change to the package's simulator or writers cannot change the inputs
the benchmark measures. Each dataset is kept in memory as dense arrays
(item x annotator x round) next to the files written for the program, and
the output checks in ``oracle.py`` read those arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CAUSES = ("straightforward", "subjective", "ambiguous", "difficult", "value_shift")
RATIONALISED = ("subjective", "ambiguous", "difficult")

BASE_EPOCH = 1_700_000_000
HOUR, DAY = 3600, 86400
#: chance that an annotator slips to another label on a clear-cut item
BASE_ERROR = 0.1
#: replicates of every resampling step of bootstrap-s
BOOTSTRAP_S_REPLICATES = 50
XYZ = ("x", "y", "z")
#: label-relabel gap bands, one inside each default interval bucket of the
#: package: < 1 hour, < 1 day, < 1 week, < 1 month, beyond
GAP_BANDS = (
    (600, 3000),
    (2 * HOUR, 20 * HOUR),
    (2 * DAY, 6 * DAY),
    (8 * DAY, 25 * DAY),
    (35 * DAY, 60 * DAY),
)


@dataclass(frozen=True)
class DataSpec:
    """Shape and generative knobs of one synthetic dataset."""

    items_per_cause: tuple[int, int, int, int, int]
    n_annotators: int
    n_rounds: int
    categories: tuple[str, ...]
    numeric: bool
    gap_bands: tuple[int, ...]
    fmt: str  # "csv" or "jsonl"
    task_id: str = "bench"
    drift: float = 0.0
    drop: float = 0.0

    def scaled(self, scale: float) -> "DataSpec":
        counts = tuple(max(2, round(n * scale)) for n in self.items_per_cause)
        return DataSpec(**{**self.__dict__, "items_per_cause": counts})


@dataclass
class Dataset:
    """Dense in-memory form: ``labels[i, a, r]`` is a category index and
    ``present[i, a, r]`` says whether that record exists."""

    item_ids: list[str]
    annotator_ids: list[str]
    categories: tuple[str, ...]
    numeric_values: tuple[float, ...] | None
    labels: np.ndarray
    present: np.ndarray
    timestamps: np.ndarray | None = None
    causes: list[str] = field(default_factory=list)
    #: item -> resolved rationalisation, and the number of tied items
    rationale: dict = field(default_factory=dict)
    ties: int = 0

    @property
    def n_records(self) -> int:
        return int(self.present.sum())


def generate(spec: DataSpec, rng: np.random.Generator) -> Dataset:
    """Labels from five per-item causes, as in the paper's 2x2 matrix."""
    k = len(spec.categories)
    n_ann, n_rounds = spec.n_annotators, spec.n_rounds
    blocks, causes = [], []
    groups = np.arange(n_ann) % 2
    flip_p = np.minimum(BASE_ERROR + spec.drift * np.arange(n_rounds), 1.0)

    def flipped(base, prob):
        flips = rng.random(base.shape) < prob
        offsets = rng.integers(1, k, size=base.shape)
        return np.where(flips, (base + offsets) % k, base)

    for cause, n in zip(CAUSES, spec.items_per_cause):
        truth = (np.arange(n) % k)[:, None, None]
        shape = (n, n_ann, n_rounds)
        if cause == "straightforward":
            block = flipped(np.broadcast_to(truth, shape), flip_p)
        elif cause == "subjective":
            block = np.broadcast_to((truth + groups[None, :, None]) % k, shape)
        elif cause == "ambiguous":
            block = rng.integers(0, k, size=shape)
        elif cause == "difficult":
            latent = flipped(np.broadcast_to(truth[:, :, 0], (n, n_ann)), 0.4)
            block = flipped(np.broadcast_to(latent[:, :, None], shape), flip_p)
        else:  # value_shift: one label in round 1, the next one afterwards
            block = np.broadcast_to((truth + 1) % k, shape).copy()
            block[:, :, 0] = truth[:, :, 0]
        blocks.append(np.asarray(block))
        causes.extend([cause] * n)
    labels = np.concatenate(blocks).astype(np.int64)
    n_items = labels.shape[0]
    present = rng.random(labels.shape) >= spec.drop
    # every item keeps two round-1 labels so that each unit can be scored
    present[:, :2, 0] = True

    bands = np.array([GAP_BANDS[b] for b in spec.gap_bands])
    band = rng.integers(0, len(bands), size=(n_items, n_ann, n_rounds - 1))
    gaps = rng.integers(bands[band, 0], bands[band, 1])
    start = (
        BASE_EPOCH
        + rng.integers(0, 30 * DAY, size=(n_items, 1))
        + rng.integers(0, 8 * HOUR, size=(1, n_ann))
    )
    timestamps = np.concatenate(
        [np.broadcast_to(start, (n_items, n_ann))[:, :, None],
         start[:, :, None] + np.cumsum(gaps, axis=2)],
        axis=2,
    )
    width = max(3, len(str(n_ann - 1)))
    return Dataset(
        item_ids=[f"item{i:05d}" for i in range(n_items)],
        annotator_ids=[f"a{j:0{width}d}" for j in range(n_ann)],
        categories=spec.categories,
        numeric_values=tuple(float(v + 1) for v in range(k)) if spec.numeric else None,
        labels=labels,
        present=present,
        timestamps=timestamps,
        causes=causes,
    )


def write_dataset(data: Dataset, spec: DataSpec, path: Path) -> None:
    idx = np.nonzero(data.present)
    items = [data.item_ids[i] for i in idx[0].tolist()]
    anns = [data.annotator_ids[a] for a in idx[1].tolist()]
    rounds = (idx[2] + 1).tolist()
    cats = [data.categories[c] for c in data.labels[idx].tolist()]
    stamps = np.datetime_as_string(data.timestamps[idx].astype("datetime64[s]"), unit="s")
    task = spec.task_id
    if spec.fmt == "csv":
        lines = ["task_id,item_id,annotator_id,round,label,timestamp"]
        lines += [
            f"{task},{i},{a},{r},{c},{t}Z"
            for i, a, r, c, t in zip(items, anns, rounds, cats, stamps.tolist())
        ]
    else:
        lines = [
            f'{{"task_id": "{task}", "item_id": "{i}", "annotator_id": "{a}", '
            f'"round": {r}, "label": "{c}", "timestamp": "{t}Z"}}'
            for i, a, r, c, t in zip(items, anns, rounds, cats, stamps.tolist())
        ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_schema(data: Dataset, task_id: str, path: Path, numeric: bool) -> None:
    doc = {"task_id": task_id, "categories": list(data.categories),
           "scale_kind": "interval" if numeric else "nominal"}
    if numeric:
        doc["numeric_values"] = {c: i + 1.0 for i, c in enumerate(data.categories)}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def rationalisations(data: Dataset, rng: np.random.Generator) -> list[tuple[str, str, str]]:
    """Why-does-it-vary meta-labels: one rater per rationalised item, right
    85% of the time; a tenth of the items get a second, random opinion, so
    some majorities tie and are excluded."""
    rows = []
    for item, cause in zip(data.item_ids, data.causes):
        if cause not in RATIONALISED:
            continue
        label = cause if rng.random() < 0.85 else RATIONALISED[rng.integers(0, 3)]
        rows.append((item, "r1", label))
        if rng.random() < 0.1:
            rows.append((item, "r2", RATIONALISED[rng.integers(0, 3)]))
    return rows


def write_rationalisations(rows, path: Path) -> None:
    lines = ["item_id,rater_id,label"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def resolve_rationalisations(rows) -> tuple[dict[str, str], int]:
    """Majority over subjective vs ambiguous+difficult; ties are dropped."""
    votes: dict[str, list[int]] = {}
    for item, _rater, label in rows:
        tally = votes.setdefault(item, [0, 0])
        tally[0 if label == "subjective" else 1] += 1
    resolved = {}
    ties = 0
    for item, (subj, other) in votes.items():
        if subj == other:
            ties += 1
        else:
            resolved[item] = "subjective" if subj > other else "ambiguous_difficult"
    return resolved, ties


@dataclass(frozen=True)
class SimSpec:
    """A config for the package's own ``simulate`` subcommand."""

    n_annotators: int
    per_cause: int
    rounds: int
    categories: tuple[str, ...]

    def to_json(self, scale: float, seed: int) -> dict:
        n = max(2, round(self.per_cause * scale))
        return {
            "n_annotators": self.n_annotators,
            "items_per_cause": {c: n for c in CAUSES},
            "categories": list(self.categories),
            "rounds": self.rounds,
            "interval_per_round": [float(3 * DAY + r * 9 * DAY) for r in range(self.rounds - 1)],
            "base_error": BASE_ERROR,
            "seed": seed,
            "task_id": "sim",
        }


@dataclass(frozen=True)
class Step:
    """One subcommand invocation. ``kind`` names the end-to-end metric that
    its wall time adds to; ``check`` names the output check; ``data`` the
    dataset (or pair of datasets) the check compares against."""

    kind: str
    argv: tuple[str, ...]
    check: str
    data: tuple[str, ...] = ()
    opts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: dict  # name -> (DataSpec, file name)
    sim: SimSpec
    steps: Callable[[dict, int, float], list[Step]]
    extra_schemas: dict = field(default_factory=dict)  # file -> (dataset, numeric)


def _reps(n: int, scale: float) -> str:
    return str(max(3, round(n * scale)))


# --- report-m ---------------------------------------------------------------

def _report_m_steps(f, seed, scale):
    s = str(seed)
    d = ("--annotations", f["main"], "--schema", f["main.schema"])
    sim_csv, sim_schema = f["sim.dir"] + "/annotations.csv", f["sim.dir"] + "/schema.json"
    side = ("--annotations-a", sim_csv, "--annotations-b", f["side"],
            "--schema", sim_schema, "--schema-b", f["side.schema"])
    # a token amount of resampling: this workload bypasses that mechanism
    reps = _reps(5, scale)
    return [
        Step("validate", ("validate", *d), "validate", ("main",)),
        Step("reliability", ("reliability", *d), "reliability", ("main",), {"rounds": (1,)}),
        Step("stability", ("stability", *d, "--permutation", _reps(1000, scale), "--seed", s),
             "stability", ("main",), {"pairing": "consecutive"}),
        Step("matrix", ("matrix", *d, "--out", f["out"] + "/matrix"), "matrix", ("main",)),
        Step("phi", ("phi", *d, "--rationalisations", f["main.why"],
                     "--permutation", _reps(10000, scale), "--seed", s), "phi", ("main",)),
        Step("simulate", ("simulate", "--sim-config", f["sim.config"], "--seed", s,
                          "--end-to-end", "--out", f["sim.dir"]), "simulate", ("sim",)),
        Step("bootstrap", ("reliability", "--annotations", sim_csv, "--schema", sim_schema,
                           "--metric", "cohens_kappa", "--annotator-a", "a000",
                           "--annotator-b", "a001", "--bootstrap", reps, "--seed", s),
             "reliability", ("sim",), {"rounds": (1,), "pair": ("a000", "a001")}),
        Step("compare", ("compare", *side, "--axis", "reliability",
                         "--replicates", reps, "--seed", s), "compare", ("sim", "side")),
        Step("compare", ("compare", *side, "--axis", "stability", "--metric", "self_kappa",
                         "--replicates", reps, "--seed", s), "compare", ("sim", "side")),
    ]


# --- bootstrap-s --------------------------------------------------------------

def _bootstrap_s_steps(f, seed, scale):
    s = str(seed)
    a = ("--annotations", f["a"], "--schema", f["a.schema"])
    ab = ("--annotations-a", f["a"], "--annotations-b", f["b"],
          "--schema", f["a.schema"], "--schema-b", f["b.schema"])
    reps = _reps(BOOTSTRAP_S_REPLICATES, scale)
    return [
        Step("validate", ("validate", *a), "validate", ("a",)),
        Step("bootstrap", ("reliability", *a, "--bootstrap", reps, "--seed", s),
             "reliability", ("a",), {"rounds": (1,)}),
        Step("reliability", ("reliability", *a, "--metric", "cohens_kappa",
                             "--annotator-a", "a000", "--annotator-b", "a001", "--round", "1,2"),
             "reliability", ("a",), {"rounds": (1, 2), "pair": ("a000", "a001")}),
        Step("compare", ("compare", *ab, "--axis", "reliability", "--replicates", reps,
                         "--seed", s), "compare", ("a", "b")),
        Step("compare", ("compare", *ab, "--axis", "stability", "--metric", "self_kappa",
                         "--replicates", reps, "--seed", s), "compare", ("a", "b")),
        Step("stability", ("stability", *a, "--permutation", _reps(1000, scale), "--seed", s),
             "stability", ("a",), {"pairing": "consecutive"}),
        Step("matrix", ("matrix", *a, "--out", f["out"] + "/matrix"), "matrix", ("a",)),
        Step("phi", ("phi", *a, "--rationalisations", f["a.why"],
                     "--permutation", _reps(10000, scale), "--seed", s), "phi", ("a",)),
        Step("simulate", ("simulate", "--sim-config", f["sim.config"], "--seed", s,
                          "--end-to-end", "--out", f["sim.dir"]), "simulate", ("sim",)),
    ]


# --- sparse-rounds-jsonl --------------------------------------------------------

def _sparse_steps(f, seed, scale):
    s = str(seed)
    d = ("--annotations", f["main"], "--schema", f["main.schema"])
    every = "1,2,3,4,5"
    side = ("--annotations-a", f["side_a"], "--annotations-b", f["side_b"],
            "--schema", f["side_a.schema"], "--schema-b", f["side_b.schema"])
    # a token amount of resampling: this workload bypasses that mechanism
    reps = _reps(5, scale)
    return [
        Step("simulate", ("simulate", "--sim-config", f["sim.config"], "--seed", s,
                          "--end-to-end", "--out", f["sim.dir"]), "simulate", ("sim",)),
        Step("validate", ("validate", *d), "validate", ("main",)),
        Step("reliability", ("reliability", *d, "--round", every), "reliability", ("main",),
             {"rounds": (1, 2, 3, 4, 5)}),
        Step("reliability", ("reliability", "--annotations", f["main"],
                             "--schema", f["interval.schema"], "--metric", "icc"),
             "reliability", ("main",), {"rounds": (1,)}),
        Step("reliability", ("reliability", *d, "--metric", "cohens_kappa",
                             "--annotator-a", "a000", "--annotator-b", "a001", "--round", every),
             "reliability", ("main",), {"rounds": (1, 2, 3, 4, 5), "pair": ("a000", "a001")}),
        Step("stability", ("stability", *d, "--pairing", "all_pairs",
                           "--permutation", _reps(1000, scale), "--seed", s),
             "stability", ("main",), {"pairing": "all_pairs"}),
        Step("matrix", ("matrix", *d, "--out", f["out"] + "/matrix"), "matrix", ("main",)),
        Step("phi", ("phi", *d, "--rationalisations", f["main.why"],
                     "--permutation", _reps(10000, scale), "--seed", s), "phi", ("main",)),
        Step("bootstrap", ("reliability", "--annotations", f["side_a"],
                           "--schema", f["side_a.schema"], "--bootstrap", reps, "--seed", s),
             "reliability", ("side_a",), {"rounds": (1,)}),
        Step("compare", ("compare", *side, "--axis", "reliability", "--replicates", reps,
                         "--seed", s), "compare", ("side_a", "side_b")),
        Step("compare", ("compare", *side, "--axis", "stability", "--metric", "self_kappa",
                         "--replicates", reps, "--seed", s), "compare", ("side_a", "side_b")),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="report-m",
            why=(
                "120k-record CSV with an interval schema; time goes to ingest, repeat "
                "pairing, permutation loops and a large report; resampling is a token run "
                "on small side data"
            ),
            datasets={
                "main": (DataSpec((400,) * 5, 20, 3, XYZ, True, (2, 3), "csv"),
                         "main.csv"),
                "side": (DataSpec((20,) * 5, 40, 2, ("yes", "no"), False, (2, 3), "jsonl",
                                  task_id="sim", drift=0.1), "side.jsonl"),
            },
            sim=SimSpec(40, 20, 2, ("yes", "no")),
            steps=_report_m_steps,
        ),
        Workload(
            name="bootstrap-s",
            why=(
                "two 8k-record datasets (CSV and JSONL) with different cause mixes; "
                "nearly all time is item resampling and the kernels re-run per replicate"
            ),
            datasets={
                "a": (DataSpec((20,) * 5, 40, 2, ("x", "y"), True, (2, 3), "csv"), "a.csv"),
                "b": (DataSpec((10, 30, 20, 30, 10), 40, 2, ("x", "y"), True, (2, 3, 4),
                               "jsonl", drift=0.15), "b.jsonl"),
            },
            sim=SimSpec(40, 20, 2, ("yes", "no")),
            steps=_bootstrap_s_steps,
        ),
        Workload(
            name="sparse-rounds-jsonl",
            why=(
                "JSONL with RFC 3339 stamps, 5 rounds, 30% of cells dropped; takes the "
                "JSONL parse, modal-count exclusion and all_pairs pairing paths"
            ),
            datasets={
                "main": (DataSpec((300,) * 5, 12, 5, XYZ, False, (0, 1, 2, 3, 4), "jsonl",
                                  drop=0.3), "main.jsonl"),
                "side_a": (DataSpec((30,) * 5, 12, 5, XYZ, False, (0, 1, 2, 3, 4), "jsonl",
                                    drop=0.3), "side_a.jsonl"),
                "side_b": (DataSpec((15, 45, 30, 45, 15), 12, 5, XYZ, False, (2, 3, 4), "csv",
                                    drift=0.1, drop=0.3), "side_b.csv"),
            },
            sim=SimSpec(12, 300, 5, XYZ),
            steps=_sparse_steps,
            extra_schemas={"interval.schema": ("main", True)},
        ),
    )
}


def setup(workload: Workload, seed: int, scale: float, work: Path):
    """Generate and write every input of ``workload``; return the file map
    and the in-memory datasets (with resolved rationalisations)."""
    # salted, so that no input shares a random stream with the package's
    # simulator run at the same seed
    rng = np.random.default_rng([seed, 20230125])
    work.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {"out": str(work / "out"), "sim.dir": str(work / "out" / "sim")}
    datasets: dict[str, Dataset] = {}
    for name, (spec, filename) in workload.datasets.items():
        spec = spec.scaled(scale)
        data = generate(spec, rng)
        path = work / filename
        write_dataset(data, spec, path)
        write_schema(data, spec.task_id, work / f"{name}.schema.json", spec.numeric)
        rows = rationalisations(data, rng)
        write_rationalisations(rows, work / f"{name}.why.csv")
        data.rationale, data.ties = resolve_rationalisations(rows)
        files[name] = str(path)
        files[f"{name}.schema"] = str(work / f"{name}.schema.json")
        files[f"{name}.why"] = str(work / f"{name}.why.csv")
        datasets[name] = data
    for key, (name, numeric) in workload.extra_schemas.items():
        path = work / f"{key}.json"
        write_schema(datasets[name], workload.datasets[name][0].task_id, path, numeric)
        files[key] = str(path)
    sim_config = work / "sim.json"
    sim_config.write_text(json.dumps(workload.sim.to_json(scale, seed), indent=2) + "\n",
                          encoding="utf-8")
    files["sim.config"] = str(sim_config)
    return files, datasets
