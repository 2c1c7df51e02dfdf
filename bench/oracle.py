"""Reference values for the output checks, computed from the generated data.

Written from the definitions in the package's docstrings and README, with
no import from the package, so a check compares two independent
computations. Inputs are the dense arrays of ``workloads.Dataset``; rounds
are 1-based as on the command line.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import Dataset

CUT = 0.6  # default cut of the chance-corrected metrics (alpha, self-kappa)

QUADRANTS = {
    (True, True): "Straightforward",
    (True, False): "SystematicErrorOrValueChange",
    (False, True): "SubjectivePerspectives",
    (False, False): "AmbiguousDifficultOrPoor",
}
CAUSE_QUADRANT = {
    "straightforward": "Straightforward",
    "subjective": "SubjectivePerspectives",
    "ambiguous": "AmbiguousDifficultOrPoor",
    "difficult": "AmbiguousDifficultOrPoor",
    "value_shift": "SystematicErrorOrValueChange",
}


def _onehot_counts(data: Dataset, rounds) -> np.ndarray:
    """counts[i, r, c]: labels of category c for item i in each round."""
    cols = [r - 1 for r in rounds]
    lab, pres = data.labels[:, :, cols], data.present[:, :, cols]
    k = len(data.categories)
    return np.stack([((lab == c) & pres).sum(axis=1) for c in range(k)], axis=-1)


def _kappa(po: float, pe: float) -> float | None:
    if pe >= 1.0 - 1e-15:
        return 1.0 if po >= 1.0 - 1e-15 else None
    return (po - pe) / (1.0 - pe)


def krippendorff_alpha(data: Dataset, rounds=(1,)) -> float:
    counts = _onehot_counts(data, rounds).sum(axis=1).astype(float)
    m = counts.sum(axis=1)
    keep = m >= 2
    counts, m = counts[keep], m[keep]
    weighted = counts / (m - 1)[:, None]
    coincidence = weighted.T @ counts - np.diag(weighted.sum(axis=0))
    k = len(data.categories)
    if data.numeric_values is None:
        delta2 = 1.0 - np.eye(k)
    else:
        values = np.array(data.numeric_values)
        delta2 = (values[:, None] - values[None, :]) ** 2
    n = coincidence.sum()
    marg = coincidence.sum(axis=1)
    observed = (coincidence * delta2).sum() / n
    expected = (np.outer(marg, marg) * delta2).sum() / (n * (n - 1))
    return 1.0 if expected == 0 else 1.0 - observed / expected


def _units(data: Dataset, rounds) -> np.ndarray:
    """Per-(item, round) category counts of the units with >= 2 labels."""
    counts = _onehot_counts(data, rounds).reshape(-1, len(data.categories)).astype(float)
    return counts[counts.sum(axis=1) >= 2]


def percent_agreement(data: Dataset, rounds=(1,)) -> float:
    units = _units(data, rounds)
    m = units.sum(axis=1)
    return float(np.mean((units * (units - 1)).sum(axis=1) / (m * (m - 1))))


def fleiss_kappa(data: Dataset, rounds=(1,)) -> float:
    units = _units(data, rounds)
    sizes = Counter(units.sum(axis=1).astype(int).tolist())
    modal = max(sizes, key=lambda s: (sizes[s], s))
    kept = units[units.sum(axis=1) == modal]
    p_bar = float(np.mean((kept * (kept - 1)).sum(axis=1) / (modal * (modal - 1))))
    p_j = kept.sum(axis=0) / kept.sum()
    return _kappa(p_bar, float((p_j**2).sum()))


def cohens_kappa(data: Dataset, pair: tuple[str, str], rounds=(1,)) -> float:
    a, b = (data.annotator_ids.index(x) for x in pair)
    cols = [r - 1 for r in rounds]
    both = data.present[:, a, cols] & data.present[:, b, cols]
    la, lb = data.labels[:, a, cols][both], data.labels[:, b, cols][both]
    n = len(la)
    k = len(data.categories)
    pe = float((np.bincount(la, minlength=k) * np.bincount(lb, minlength=k)).sum()) / n**2
    return _kappa(float((la == lb).mean()), pe)


def icc_oneway(data: Dataset, rnd: int = 1) -> float:
    present = data.present[:, :, rnd - 1]
    annotators = present.any(axis=0)
    complete = present[:, annotators].all(axis=1)
    values = (data.labels[:, :, rnd - 1][complete][:, annotators] + 1).astype(float)
    n, k = values.shape
    row_means = values.mean(axis=1)
    ms_rows = k * ((row_means - values.mean()) ** 2).sum() / (n - 1)
    ms_within = ((values - row_means[:, None]) ** 2).sum() / (n * (k - 1))
    return (ms_rows - ms_within) / (ms_rows + (k - 1) * ms_within)


def _histories(data: Dataset):
    """(item, annotator, labels in round order) for every labelled cell."""
    for i, (lab_i, pres_i) in enumerate(zip(data.labels.tolist(), data.present.tolist())):
        for a, (lab, pres) in enumerate(zip(lab_i, pres_i)):
            history = [label for label, here in zip(lab, pres) if here]
            if history:
                yield i, a, history


def repeat_pairs(data: Dataset, pairing: str = "consecutive"):
    """(annotator, first label, second label) per repeat pair."""
    pairs = []
    for _i, a, h in _histories(data):
        if pairing == "consecutive":
            combos = zip(h, h[1:])
        else:  # all_pairs
            combos = [(h[x], h[y]) for x in range(len(h)) for y in range(x + 1, len(h))]
        pairs.extend((a, l1, l2) for l1, l2 in combos)
    return pairs


def dataset_stability(data: Dataset, pairing: str = "consecutive") -> tuple[float, float]:
    """(exact rate, mean per-annotator self-kappa)."""
    pairs = repeat_pairs(data, pairing)
    exact = sum(l1 == l2 for _a, l1, l2 in pairs) / len(pairs)
    by_ann: dict[int, list] = {}
    for a, l1, l2 in pairs:
        by_ann.setdefault(a, []).append((l1, l2))
    kappas = []
    for ann_pairs in by_ann.values():
        n = len(ann_pairs)
        po = sum(l1 == l2 for l1, l2 in ann_pairs) / n
        m1, m2 = Counter(p[0] for p in ann_pairs), Counter(p[1] for p in ann_pairs)
        kappa = _kappa(po, sum(m1[c] * m2[c] for c in m1) / n**2)
        if kappa is not None:
            kappas.append(kappa)
    return exact, float(np.mean(kappas))


def item_votes(data: Dataset) -> dict[int, list[bool]]:
    """Per item, one consistency vote per annotator who labelled it twice+."""
    votes: dict[int, list[bool]] = {}
    for i, _a, h in _histories(data):
        if len(h) >= 2:
            votes.setdefault(i, []).append(len(set(h)) == 1)
    return votes


def quadrant(reliability: float, stability: float) -> str:
    return QUADRANTS[(reliability >= CUT, stability >= CUT)]


def phi_table(data: Dataset) -> dict[str, int]:
    table = {"a": 0, "b": 0, "c": 0, "d": 0}
    for i, votes in item_votes(data).items():
        category = data.rationale.get(data.item_ids[i])
        if category is None:
            continue
        subjective = category == "subjective"
        if all(votes):
            table["a" if subjective else "b"] += 1
        else:
            table["c" if subjective else "d"] += 1
    return table


def phi(table: dict[str, int]) -> float:
    a, b, c, d = table["a"], table["b"], table["c"], table["d"]
    return (b * c - a * d) / math.sqrt((a + b) * (c + d) * (a + c) * (b + d))


def recovery_accuracy(data: Dataset) -> tuple[float, int]:
    """Share of scorable items whose raw-score quadrant matches their cause."""
    first = _onehot_counts(data, (1,))[:, 0, :]
    votes = item_votes(data)
    hits = scored = 0
    for i, cause in enumerate(data.causes):
        m = first[i].sum()
        if m < 2 or not votes.get(i):
            continue
        reliability = float((first[i] * (first[i] - 1)).sum()) / (m * (m - 1))
        stability = sum(votes[i]) / len(votes[i])
        scored += 1
        hits += quadrant(reliability, stability) == CAUSE_QUADRANT[cause]
    return hits / scored, scored


def read_simulated(sim_dir: Path) -> Dataset:
    """The dense form of what ``simulate`` wrote: annotations.csv plus the
    item causes in truth.json and the schema's categories."""
    schema = json.loads((sim_dir / "schema.json").read_text(encoding="utf-8"))
    truth = json.loads((sim_dir / "truth.json").read_text(encoding="utf-8"))
    with open(sim_dir / "annotations.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    items = sorted({r["item_id"] for r in rows})
    anns = sorted({r["annotator_id"] for r in rows})
    n_rounds = max(int(r["round"]) for r in rows)
    cats = tuple(schema["categories"])
    item_idx = {x: i for i, x in enumerate(items)}
    ann_idx = {x: i for i, x in enumerate(anns)}
    cat_idx = {x: i for i, x in enumerate(cats)}
    labels = np.zeros((len(items), len(anns), n_rounds), dtype=np.int64)
    present = np.zeros(labels.shape, dtype=bool)
    for r in rows:
        at = (item_idx[r["item_id"]], ann_idx[r["annotator_id"]], int(r["round"]) - 1)
        labels[at] = cat_idx[r["label"]]
        present[at] = True
    return Dataset(items, anns, cats, None, labels, present,
                   causes=[truth[x] for x in items])
