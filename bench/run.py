"""relistab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The runner generates the
workload's inputs from ``--seed`` under ``bench/.work/``, then runs the
workload's sequence of ``python -m relistab ...`` subcommands, one child
process at a time, against the checkout's ``src/``, repeating the whole
sequence (a *pass*) until ``--seconds`` are used up. Every output is
checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment of the run.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one checked child pass, then alternates
untraced and traced in-process passes (``relistab.cli.main`` called with
the same arguments) and reports the per-layer metrics; the spans go to
``bench/.work/<workload>-s<seed>/trace.jsonl``.

The exit code is 0 when every output check passed, 1 when one failed, and
2 when the checkout holds no ``src/relistab`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import checks
import oracle
import workloads
from spans import LAYERS, pass_summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
SCHEMA = SRC / "relistab" / "schemas" / "report.schema.json"

SETUP_REPS = 5
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 120.0
#: the package is single-threaded; idle BLAS worker threads spinning on the
#: second core of a small box only add noise to wall times
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
KINDS = ("validate", "reliability", "bootstrap", "stability", "matrix", "phi", "compare",
         "simulate")
END_TO_END = {
    "setup_s": "s", "pass_s": "s",
    **{f"{kind}_s": "s" for kind in KINDS},
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
FUNCTION_METRICS = (
    "ingest.read_csv_s", "ingest.read_jsonl_s", "ingest.records_per_s", "ingest.write_csv_s",
    "core.validate_s", "core.repeat_pairs_s", "core.repeat_pairs_n", "core.coincidence_s",
    "reliability.percent_agreement_s", "reliability.fleiss_kappa_s",
    "reliability.krippendorff_alpha_s", "reliability.icc_s", "reliability.cohens_kappa_s",
    "reliability.resample_items_s", "reliability.bootstrap_ci_s",
    "reliability.bootstrap_s_per_replicate",
    "stability.dataset_stability_s", "stability.annotator_stability_s",
    "stability.item_labels_s", "stability.interval_profile_s",
    "association.compare_reliability_s", "association.compare_stability_s",
    "association.permutation_p_s",
    "quadrant.classify_dataset_s", "quadrant.classify_items_s",
    "quadrant.items_classified_ratio",
    "simulator.simulate_s",
    "reporting.dumps_report_s", "reporting.render_markdown_s", "reporting.render_svg_s",
    "reporting.bytes_out",
)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"core.repeat_pairs_n": "count", "reporting.bytes_out": "B"}.get(name, "ratio")


PER_LAYER = {
    **{name: _unit(name) for name in FUNCTION_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.startup_s": "s", "cli.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


@dataclass
class StepRun:
    code: int
    wall_s: float
    rss_kb: int = 0
    label: str = ""
    cpu_s: float = 0.0
    #: in-process steps: the child's wall time outside the ``main`` call
    startup_s: float = 0.0
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    runs: list[StepRun]
    wall_s: float
    fingerprint: dict


def child(cmd: list[str], cwd: Path, stdout: Path, stderr: Path, label: str) -> StepRun:
    """Run ``cmd`` to completion; wall time and this child's own peak RSS
    come from ``os.wait4``, so no other child's memory is mixed in."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    killed = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd, env=env)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = StepRun(proc.returncode, wall, usage.ru_maxrss, label,
                  usage.ru_utime + usage.ru_stime)
    if killed.is_set():
        run.problems.append(f"timed out after {CHILD_TIMEOUT_S:.0f}s")
    elif proc.returncode != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        run.problems.append(f"exit {proc.returncode}: {tail}")
    return run


def relistab(argv) -> list[str]:
    return [sys.executable, "-m", "relistab", *argv]


def _fingerprint(steps, out: Path) -> dict:
    """sha256 of every report file each step wrote."""
    prints = {}
    for index, step in enumerate(steps):
        report = checks.report_path(step, out / f"step{index}.out")
        paths = [report]
        if report.name == "report.json":
            paths += [report.with_name("report.md"), report.with_name("matrix.svg")]
        for path in paths:
            if path.exists():
                prints[f"{index}:{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return prints


def _fresh_out(work: Path) -> Path:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def subprocess_pass(steps, work: Path) -> Pass:
    out = _fresh_out(work)
    runs = []
    start = time.perf_counter()
    for index, step in enumerate(steps):
        runs.append(child(relistab(step.argv), work, out / f"step{index}.out",
                          out / f"step{index}.err", f"step {index} {step.argv[0]}"))
    wall = time.perf_counter() - start
    return Pass(runs, wall, _fingerprint(steps, out))


def inprocess_pass(steps, work: Path, traced: bool, pass_id: int, spans: list) -> Pass:
    """The same steps, each through ``relistab.cli.main`` inside a fresh
    ``inproc.py`` interpreter; a step's time is that of the ``main`` call
    alone. Traced spans are renumbered into ``spans``."""
    out = _fresh_out(work)
    runs = []
    for index, step in enumerate(steps):
        result = out / f"step{index}.json"
        cmd = [sys.executable, str(BENCH / "inproc.py"), str(result),
               str(out / f"step{index}.out"), *(["--trace"] if traced else []), "--", *step.argv]
        run = child(cmd, work, out / f"step{index}.log", out / f"step{index}.err",
                    f"step {index} {step.argv[0]} in-process{' traced' if traced else ''}")
        if run.code == 0:
            doc = json.loads(result.read_text(encoding="utf-8"))
            run.startup_s = run.wall_s - doc["main_s"]
            run.wall_s = doc["main_s"]
            if doc["code"] != 0:
                run.problems.append(f"in-process exit {doc['code']}")
            base = len(spans)
            for span in doc["spans"]:
                span.update(id=span["id"] + base, pass_id=pass_id, step=index,
                            parent=None if span["parent"] is None else span["parent"] + base)
                spans.append(span)
        runs.append(run)
    return Pass(runs, sum(r.wall_s for r in runs), _fingerprint(steps, out))


def check_outputs(steps, work: Path, datasets: dict, files: dict, first: Pass) -> None:
    """Schema-validate and value-check every report of the first pass."""
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
    loaded = dict(datasets)
    for index, (step, run) in enumerate(zip(steps, first.runs)):
        if run.code != 0:
            continue
        try:
            path = checks.report_path(step, work / "out" / f"step{index}.out")
            report = json.loads(path.read_text(encoding="utf-8"))
            errors = sorted(validator.iter_errors(report), key=str)
            run.problems += [f"schema: {e.message}" for e in errors[:3]]
            for name in step.data:
                if name not in loaded:
                    loaded[name] = oracle.read_simulated(Path(files["sim.dir"]))
            run.problems += checks.CHECKS[step.check](
                report, step, [loaded[name] for name in step.data])
        except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            run.problems.append(f"check raised {type(exc).__name__}: {exc}")


def compare_fingerprint(reference: Pass, later: Pass) -> None:
    for key, digest in reference.fingerprint.items():
        if later.fingerprint.get(key) != digest:
            index = int(key.split(":")[0])
            later.runs[index].problems.append(f"{key} differs from the first pass")


def _median(values) -> float:
    return float(statistics.median(values))


def _env() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def end_to_end(steps, work: Path, seconds: float, datasets, files):
    """Child passes until ``seconds`` are used; returns (passes, other runs,
    metrics)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(subprocess_pass(steps, work))
        if len(passes) == 1:
            check_outputs(steps, work, datasets, files, passes[0])
        else:
            compare_fingerprint(passes[0], passes[-1])
        elapsed = time.perf_counter() - start
        if elapsed + _median([p.wall_s for p in passes]) > seconds:
            break
    metrics = {"pass_s": _median([p.wall_s for p in passes])}
    for kind in KINDS:
        metrics[f"{kind}_s"] = _median(
            [sum(r.wall_s for s, r in zip(steps, p.runs) if s.kind == kind) for p in passes])
    metrics["peak_rss_mb"] = _median([max(r.rss_kb for r in p.runs) / 1024 for p in passes])
    return passes, [], metrics


def per_layer(steps, work: Path, seconds: float, datasets, files):
    """One checked child pass, then in-process passes, untraced and traced
    in turn, until ``seconds`` are used; returns (passes, other runs,
    metrics)."""
    start = time.perf_counter()
    reference = subprocess_pass(steps, work)
    check_outputs(steps, work, datasets, files, reference)
    out = work / "out"
    startup = [child(relistab(["--version"]), work, out / "version.out", out / "version.err",
                     "--version") for _ in range(STARTUP_REPS)]
    spans: list[dict] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        plain.append(inprocess_pass(steps, work, False, len(plain), spans))
        traced.append(inprocess_pass(steps, work, True, len(traced), spans))
        for later in (plain[-1], traced[-1]):
            compare_fingerprint(reference, later)
        elapsed = time.perf_counter() - start
        if elapsed + 2 * _median([p.wall_s for p in traced]) > seconds:
            break
    with open(work / "trace.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(span) + "\n" for span in spans)

    summaries = [pass_summary([s for s in spans if s["pass_id"] == i])
                 for i in range(len(traced))]
    metrics = {name: _median([s[name] for s in summaries]) for name in FUNCTION_METRICS}
    metrics.update({f"{layer}.self_s": _median([s[f"{layer}.self_s"] for s in summaries])
                    for layer in LAYERS})
    metrics["cli.startup_s"] = _median([r.wall_s for r in startup])
    # what a user waits for beyond the work itself: interpreter start and
    # imports of every child of the pass, each taken within one child
    metrics["cli.overhead_s"] = _median([sum(r.startup_s for r in p.runs) for p in plain])
    metrics["trace.overhead_ratio"] = (_median([p.wall_s for p in traced])
                                       / _median([p.wall_s for p in plain]))
    return [reference, *plain, *traced], startup, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every dataset, replicate and permutation count")
    args = parser.parse_args(argv)
    if not (SRC / "relistab" / "__init__.py").is_file():
        print(f"no relistab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    env = _env()
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}"
    setup_times, warm = [], []
    for _ in range(SETUP_REPS):
        # each set-up starts from an empty directory: rewriting files in
        # place can wait on the flush of the previous copy
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        files, datasets = workloads.setup(workload, args.seed, args.scale, work)
        warm.append(child(relistab(["--version"]), work, work / "version.out",
                          work / "version.err", "setup --version"))
        setup_times.append(time.perf_counter() - start)
    steps = workload.steps(files, args.seed, args.scale)

    if args.trace:
        passes, other, metrics = per_layer(steps, work, args.seconds, datasets, files)
        units = PER_LAYER
    else:
        passes, other, metrics = end_to_end(steps, work, args.seconds, datasets, files)
        metrics["setup_s"] = _median(setup_times)
        units = END_TO_END

    runs = warm + other + [r for p in passes for r in p.runs]
    problems = [f"{r.label}: {msg}" for r in runs for msg in r.problems]
    attempted = len(runs)
    failed = sum(1 for r in runs if r.problems)
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    env["loadavg_end"] = list(os.getloadavg())
    env["passes"] = len(passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    # (wall, cpu) seconds of every step of every pass, to tell a slow phase
    # of the machine from a slow step
    samples = [[(round(r.wall_s, 6), round(r.cpu_s, 6)) for r in p.runs] for p in passes]
    (work / "result.json").write_text(
        json.dumps({"env": env, "problems": problems, "step_samples": samples, **result},
                   indent=2) + "\n",
        encoding="utf-8")
    shutil.rmtree(work / "out", ignore_errors=True)
    for path in work.iterdir():
        if path.name not in ("result.json", "trace.jsonl"):
            path.unlink()
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
