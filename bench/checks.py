"""Output checks: one function per subcommand report kind.

Each check takes the parsed ``report.json`` (or the JSON a subcommand
printed), the step that produced it and the data it was computed from, and
returns a list of problems; an empty list means the output is correct.
Values are compared, not bytes, with the tolerance below, so report fields
added later do not trip a check.
"""

from __future__ import annotations

import math
from pathlib import Path

import oracle

TOL = 1e-9


def _close(problems: list, what: str, got, want) -> None:
    if got is None or want is None:
        if got is not want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")
        return
    if not math.isclose(float(got), float(want), rel_tol=TOL, abs_tol=TOL):
        problems.append(f"{what}: got {float(got)!r}, expected {float(want)!r}")


def _brackets(problems: list, what: str, ci, value) -> None:
    if ci is None or not ci[0] <= value <= ci[1]:
        problems.append(f"{what}: interval {ci!r} does not bracket {value!r}")


def _permutation_p(problems: list, what: str, p, replicates: int) -> None:
    """An add-one permutation p-value is (1 + hits) / (1 + replicates)."""
    hits = p * (1 + replicates) - 1 if p is not None else -1.0
    if p is None or not 0.0 < p <= 1.0 or abs(hits - round(hits)) > 1e-6 * (1 + replicates):
        problems.append(f"{what}: {p!r} is not a p-value over {replicates} permutations")


def _flag(argv, name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def check_validate(report, step, data) -> list[str]:
    (d,) = data
    v, problems = report["validation"], []
    want = {"n_records": d.n_records, "n_items": len(d.item_ids),
            "n_annotators": len(d.annotator_ids),
            "rounds": sorted({int(r) + 1 for r in d.present.any(axis=(0, 1)).nonzero()[0]})}
    for key, value in want.items():
        if v[key] != value:
            problems.append(f"validation.{key}: got {v[key]!r}, expected {value!r}")
    return problems


def check_reliability(report, step, data) -> list[str]:
    (d,) = data
    rounds = step.opts["rounds"]
    problems = []
    references = {
        "percent_agreement": lambda: oracle.percent_agreement(d, rounds),
        "fleiss_kappa": lambda: oracle.fleiss_kappa(d, rounds),
        "krippendorff_alpha": lambda: oracle.krippendorff_alpha(d, rounds),
        "cohens_kappa": lambda: oracle.cohens_kappa(d, step.opts["pair"], rounds),
        "icc_oneway_random": lambda: oracle.icc_oneway(d, rounds[0]),
    }
    entries = report["reliability"]
    if not entries:
        problems.append("reliability: no metric reported")
    bootstrapped = "--bootstrap" in step.argv
    for entry in entries:
        name = entry["metric"]
        _close(problems, f"reliability.{name}", entry["value"], references[name]())
        if bootstrapped:
            _brackets(problems, f"reliability.{name}.ci", entry["ci"], entry["value"])
        elif entry["ci"] is not None:
            problems.append(f"reliability.{name}: unexpected ci")
    return problems


def check_stability(report, step, data) -> list[str]:
    (d,) = data
    s, problems = report["stability"], []
    exact, self_kappa = oracle.dataset_stability(d, step.opts["pairing"])
    _close(problems, "stability.exact_rate", s["dataset"]["exact_rate"], exact)
    _close(problems, "stability.self_kappa", s["dataset"]["self_kappa"], self_kappa)
    profile = s["intervals"]
    if profile is None:
        problems.append("stability.intervals: no interval profile")
    else:
        timed = len(oracle.repeat_pairs(d, step.opts["pairing"]))
        if sum(b["n_pairs"] for b in profile["buckets"]) != timed:
            problems.append("stability.intervals: bucket sizes do not add up to the pairs")
        _permutation_p(problems, "stability.trend.p", profile["trend"]["p"],
                       int(_flag(step.argv, "--permutation")))
    return problems


def check_matrix(report, step, data) -> list[str]:
    (d,) = data
    m, problems = report["matrix"], []
    alpha = oracle.krippendorff_alpha(d, (1,))
    _exact, self_kappa = oracle.dataset_stability(d)
    _close(problems, "matrix.dataset.reliability", m["dataset"]["reliability"], alpha)
    _close(problems, "matrix.dataset.stability", m["dataset"]["stability"], self_kappa)
    if m["dataset"]["quadrant"] != oracle.quadrant(alpha, self_kappa):
        problems.append(f"matrix.dataset.quadrant: got {m['dataset']['quadrant']!r}")
    if len(m["items"]) + len(m["excluded"]) != len(d.item_ids):
        problems.append("matrix: classified + excluded items != items")
    return problems


def check_phi(report, step, data) -> list[str]:
    (d,) = data
    a, problems = report["association"], []
    table = oracle.phi_table(d)
    if a["table"] != table:
        problems.append(f"phi.table: got {a['table']!r}, expected {table!r}")
    _close(problems, "phi.phi", a["phi"], oracle.phi(table))
    if a["excluded_ties"] != d.ties:
        problems.append(f"phi.excluded_ties: got {a['excluded_ties']}, expected {d.ties}")
    _permutation_p(problems, "phi.p_value", a["p_value"], int(_flag(step.argv, "--permutation")))
    return problems


def check_simulate(report, step, data) -> list[str]:
    (d,) = data
    recovery, problems = report["simulation"]["recovery"], []
    if report["simulation"]["n_records"] != d.n_records:
        problems.append("simulation.n_records does not match annotations.csv")
    accuracy, scored = oracle.recovery_accuracy(d)
    _close(problems, "simulation.recovery.accuracy", recovery["accuracy"], accuracy)
    if recovery["n_items"] != scored:
        problems.append(f"simulation.recovery.n_items: got {recovery['n_items']}, expected {scored}")
    want = oracle.quadrant(oracle.krippendorff_alpha(d, (1,)), oracle.dataset_stability(d)[1])
    if recovery["dataset_quadrant"] != want:
        problems.append(f"simulation.recovery.dataset_quadrant: got {recovery['dataset_quadrant']!r}")
    return problems


def check_compare(report, step, data) -> list[str]:
    a, b = data
    c, problems = report["comparison"], []
    if c["axis"] == "reliability":
        want = oracle.krippendorff_alpha(a, (1,)) - oracle.krippendorff_alpha(b, (1,))
    else:
        want = oracle.dataset_stability(a)[1] - oracle.dataset_stability(b)[1]
    _close(problems, f"comparison.{c['axis']}.difference", c["difference"], want)
    _brackets(problems, f"comparison.{c['axis']}.ci", c["ci"], c["difference"])
    if c["replicates"] != int(_flag(step.argv, "--replicates")):
        problems.append("comparison.replicates does not echo --replicates")
    return problems


CHECKS = {
    "validate": check_validate,
    "reliability": check_reliability,
    "stability": check_stability,
    "matrix": check_matrix,
    "phi": check_phi,
    "simulate": check_simulate,
    "compare": check_compare,
}


def report_path(step, stdout_path: Path) -> Path:
    """Where a step's report document lands: ``--out DIR`` or its stdout."""
    out = _flag(step.argv, "--out")
    return Path(out) / "report.json" if out else stdout_path
