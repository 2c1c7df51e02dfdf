"""Report assembly: canonical JSON, markdown projection, SVG scatter.

Report documents are deterministic: floats are rounded to 10 significant
digits before serialization, keys are sorted, and provenance carries input
digests + config + seed + version instead of wall-clock timestamps. The
markdown rendering is a projection of the JSON document — every number it
shows is taken verbatim from the serialized JSON values.
"""

from __future__ import annotations

import hashlib
import html
import importlib.resources
import json
import numbers
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EmptyInputError
from .quadrant import Quadrant, QuadrantAssignment, QuadrantThresholds

REPORT_KINDS = (
    "validate", "reliability", "stability", "matrix", "phi", "compare",
    "simulate", "bundle",
)

#: report sections that subcommands produce and `bundle` merges
SECTION_KEYS = (
    "validation", "reliability", "stability", "matrix", "association",
    "comparison", "simulation",
)

_QUADRANT_DISPLAY = {
    Quadrant.STRAIGHTFORWARD: "Straightforward / good quality",
    Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE: "Systematic errors / value changes",
    Quadrant.SUBJECTIVE_PERSPECTIVES: "Variable perspectives (subjectivity)",
    Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR: "Ambiguous or difficult / poor quality",
}

_QUADRANT_COLOR = {
    Quadrant.STRAIGHTFORWARD: "#2a9d8f",
    Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE: "#e9c46a",
    Quadrant.SUBJECTIVE_PERSPECTIVES: "#457b9d",
    Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR: "#e76f51",
}


def round_sig(value: float, digits: int = 10) -> float:
    """Round to ``digits`` significant digits (report float canon)."""
    return float(f"{float(value):.{digits}g}")


def canonicalize(obj):
    """Recursively coerce report values to plain JSON types with canonical
    float rounding."""
    # exact built-in types first: an ABC check costs more than the rest
    kind = type(obj)
    if kind is float:
        return round_sig(obj)
    if kind is str or kind is bool or kind is int or obj is None:
        return obj
    if kind is dict or isinstance(obj, Mapping):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return round_sig(float(obj))
    return obj


def dumps_report(report: dict) -> str:
    """Canonical JSON text for a report document (byte-stable)."""
    return json.dumps(canonicalize(report), indent=2, sort_keys=True) + "\n"


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_provenance(
    inputs: Mapping[str, str | Path], config: Mapping, seed: int | None
) -> dict:
    from . import __version__

    return {
        "inputs": {
            name: {"path": str(path), "sha256": file_sha256(path)}
            for name, path in sorted(inputs.items())
        },
        "config": dict(config),
        "seed": seed,
        "version": __version__,
    }


def load_report_schema() -> dict:
    """The JSON Schema that every report document validates against."""
    text = (
        importlib.resources.files("relistab")
        .joinpath("schemas/report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


# --- markdown projection ---------------------------------------------------


def _fmt(value) -> str:
    """Format a scalar exactly as it appears in the JSON serialization."""
    if isinstance(value, str):
        return value
    return json.dumps(canonicalize(value))


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return lines


def render_markdown(report: dict) -> str:
    """Human-readable projection of a report document."""
    report = canonicalize(report)
    prov = report.get("provenance", {})
    lines = [f"# Annotation report ({report.get('report_kind', 'unknown')})", ""]
    lines.append(
        f"Toolkit version {prov.get('version', '?')}; seed {_fmt(prov.get('seed'))}."
    )
    inputs = prov.get("inputs", {})
    if inputs:
        lines.append("")
        lines.extend(
            _md_table(
                ["input", "path", "sha256"],
                [[name, spec["path"], spec["sha256"][:16] + "…"] for name, spec in sorted(inputs.items())],
            )
        )
    if "validation" in report:
        v = report["validation"]
        lines += ["", "## Validation", ""]
        lines.extend(
            _md_table(
                ["records", "items", "annotators", "rounds"],
                [[v["n_records"], v["n_items"], v["n_annotators"], _fmt(v["rounds"])]],
            )
        )
    if "reliability" in report:
        lines += ["", "## Between-annotator agreement", ""]
        rows = [
            [
                r["metric"], r["value"], r["n_items"], r["n_annotators"],
                _fmt(r["round"]),
                "—" if r["ci"] is None else f"[{_fmt(r['ci'][0])}, {_fmt(r['ci'][1])}]",
                len(r["exclusions"]),
            ]
            for r in report["reliability"]
        ]
        lines.extend(
            _md_table(
                ["metric", "value", "items", "annotators", "round", "95% CI", "excluded"],
                rows,
            )
        )
    if "stability" in report:
        s = report["stability"]
        lines += ["", "## Within-annotator consistency", ""]
        d = s["dataset"]
        lines.append(
            f"Dataset exact repeat rate {_fmt(d['exact_rate'])} over {d['n_pairs']} pairs; "
            f"mean self-kappa {_fmt(d['self_kappa'])}."
        )
        if s.get("annotators"):
            lines += [""]
            lines.extend(
                _md_table(
                    ["annotator", "exact_rate", "self_kappa", "pairs"],
                    [
                        [e["subject_id"], e["exact_rate"], _fmt(e["self_kappa"]), e["n_pairs"]]
                        for e in s["annotators"]
                    ],
                )
            )
        if s.get("items"):
            lines += [""]
            lines.extend(
                _md_table(
                    ["item", "stability", "rate", "repeating annotators"],
                    [
                        [e["item_id"], e["stability"], e["stability_rate"], e["n_annotators_repeating"]]
                        for e in s["items"]
                    ],
                )
            )
        if s.get("intervals"):
            profile = s["intervals"]
            lines += ["", "### Consistency by label-relabel interval", ""]
            lines.extend(
                _md_table(
                    ["interval low (s)", "interval high (s)", "exact_rate", "pairs"],
                    [
                        [b["low"], _fmt(b["high"]), b["exact_rate"], b["n_pairs"]]
                        for b in profile["buckets"]
                    ],
                )
            )
            trend = profile["trend"]
            lines.append(
                f"\nTrend: Spearman rho {_fmt(trend['rho'])}, permutation p {_fmt(trend['p'])}."
            )
    if "matrix" in report:
        m = report["matrix"]
        lines += ["", "## Reliability x stability matrix", ""]
        d = m["dataset"]
        if d is not None:
            lines.append(
                f"Dataset: reliability {_fmt(d['reliability'])}, stability {_fmt(d['stability'])} "
                f"-> **{d['quadrant']}**."
            )
        if m.get("items"):
            lines += [""]
            lines.extend(
                _md_table(
                    ["item", "reliability", "stability", "quadrant"],
                    [
                        [e["subject_id"], e["reliability"], e["stability"], e["quadrant"]]
                        for e in m["items"]
                    ],
                )
            )
        if m.get("excluded"):
            lines += ["", f"Excluded items: {len(m['excluded'])}."]
    if "association" in report:
        a = report["association"]
        lines += ["", "## Stability x rationalisation association", ""]
        t = a["table"]
        lines.extend(
            _md_table(
                ["", "subjective", "ambiguous/difficult"],
                [["stable", t["a"], t["b"]], ["unstable", t["c"], t["d"]]],
            )
        )
        lines.append(
            f"\nphi {_fmt(a['phi'])} (convention {a['convention']}), "
            f"p {_fmt(a['p_value'])}, ties excluded {a['excluded_ties']}."
        )
    if "comparison" in report:
        c = report["comparison"]
        lines += ["", "## Two-dataset comparison", ""]
        lines.append(
            f"{c['axis']} ({c['metric']}): difference {_fmt(c['difference'])}, "
            f"{_fmt(c['confidence'])} CI [{_fmt(c['ci'][0])}, {_fmt(c['ci'][1])}] "
            f"over {c['replicates']} replicates."
        )
    if "simulation" in report:
        s = report["simulation"]
        lines += ["", "## Simulation", ""]
        lines.extend(
            _md_table(
                ["cause", "items"],
                sorted(s["items_per_cause"].items()),
            )
        )
        lines.append(f"\nRecords generated: {s['n_records']}.")
        if s.get("recovery") is not None:
            r = s["recovery"]
            lines.append(
                f"Recovery: dataset quadrant {r['dataset_quadrant']} "
                f"(expected {_fmt(r['expected_quadrant'])}), accuracy {_fmt(r['accuracy'])}."
            )
    lines.append("")
    return "\n".join(lines)


# --- SVG scatter -----------------------------------------------------------

_SVG_W, _SVG_H = 720, 540
_PLOT = (90.0, 40.0, 610.0, 470.0)  # x0, y0, x1, y1 in pixels
_RANGE = (-1.0, 1.0)


def _x_pix(stability: float) -> float:
    """Stability axis, high values at the left (matrix column order)."""
    lo, hi = _RANGE
    s = min(max(stability, lo), hi)
    frac = (hi - s) / (hi - lo)
    return _PLOT[0] + frac * (_PLOT[2] - _PLOT[0])


def _y_pix(reliability: float) -> float:
    lo, hi = _RANGE
    r = min(max(reliability, lo), hi)
    frac = (hi - r) / (hi - lo)
    return _PLOT[1] + frac * (_PLOT[3] - _PLOT[1])


def render_svg_quadrant(
    assignments: Sequence[QuadrantAssignment],
    thresholds: QuadrantThresholds | None = None,
) -> str:
    """Deterministic SVG scatter of assignments on the 2x2 matrix.

    Reliability on the vertical axis (high at top), stability on the
    horizontal axis (high at the LEFT, mirroring the matrix layout), with
    gridlines at the threshold cuts and a label in each quadrant cell.
    """
    if not assignments:
        raise EmptyInputError("no assignments to draw")
    thresholds = thresholds or assignments[0].thresholds
    x0, y0, x1, y1 = _PLOT
    cut_x = _x_pix(thresholds.stability_cut)
    cut_y = _y_pix(thresholds.reliability_cut)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif">',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="#fdfdfd" stroke="#333" stroke-width="1"/>',
        f'<line x1="{cut_x:.2f}" y1="{y0}" x2="{cut_x:.2f}" y2="{y1}" '
        'stroke="#888" stroke-width="1" stroke-dasharray="6 4"/>',
        f'<line x1="{x0}" y1="{cut_y:.2f}" x2="{x1}" y2="{cut_y:.2f}" '
        'stroke="#888" stroke-width="1" stroke-dasharray="6 4"/>',
    ]
    cells = {
        Quadrant.STRAIGHTFORWARD: ((x0 + cut_x) / 2, (y0 + cut_y) / 2),
        Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE: ((cut_x + x1) / 2, (y0 + cut_y) / 2),
        Quadrant.SUBJECTIVE_PERSPECTIVES: ((x0 + cut_x) / 2, (cut_y + y1) / 2),
        Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR: ((cut_x + x1) / 2, (cut_y + y1) / 2),
    }
    for quadrant, (cx, cy) in cells.items():
        label = html.escape(_QUADRANT_DISPLAY[quadrant], quote=False)
        parts.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" text-anchor="middle" '
            f'font-size="12" fill="#aaa">{label}</text>'
        )
    # axis ticks: endpoints, zero, and the cuts
    for value in (-1.0, 0.0, 1.0, thresholds.stability_cut):
        px = _x_pix(value)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y1 + 6}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y1 + 20}" text-anchor="middle" font-size="11">'
            f"{value:g}</text>"
        )
    for value in (-1.0, 0.0, 1.0, thresholds.reliability_cut):
        py = _y_pix(value)
        parts.append(
            f'<line x1="{x0 - 6}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x0 - 10}" y="{py + 4:.2f}" text-anchor="end" font-size="11">'
            f"{value:g}</text>"
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{y1 + 42}" text-anchor="middle" font-size="13">'
        "stability (within-annotator), high at left</text>"
    )
    parts.append(
        f'<text x="22" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 22 {(y0 + y1) / 2:.2f})">reliability (between-annotator)</text>'
    )
    for assignment in assignments:
        px = _x_pix(assignment.stability_score)
        py = _y_pix(assignment.reliability_score)
        radius = 7 if assignment.scope == "dataset" else 4
        color = _QUADRANT_COLOR[assignment.quadrant]
        subject = assignment.subject_id if assignment.subject_id is not None else "dataset"
        title = (
            f"{subject}: reliability {round_sig(assignment.reliability_score):.4g}, "
            f"stability {round_sig(assignment.stability_score):.4g}"
        )
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" fill="{color}" '
            f'fill-opacity="0.75" stroke="#333" stroke-width="0.5">'
            f"<title>{html.escape(title, quote=False)}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
