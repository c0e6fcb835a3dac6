"""Benchmark for the rotknot CLI.

Runs one workload (see workloads.py) as real CLI jobs, one fresh
interpreter per job and one job at a time, checks every job's output and
prints one JSON object as the last line of stdout::

    python3 bench/run.py --workload weights --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it repeats passes over the job list until
``--seconds`` have elapsed and reports the end-to-end metrics (means over passes,
scaled by calibration samples taken between jobs).
With ``--trace 1`` it makes one pass in which every job runs twice in a
fresh interpreter, once plain and once under the span tracer of
spans.py, and reports the per-layer metrics.  Per-job rows, the
environment and the aggregated spans are written under bench/out/.

``python3 bench/run.py --record-golden`` rewrites golden.json from the
current program's output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
SPANS = BENCH / "spans.py"

SETUP_CMD = (sys.executable, "-c", "import rotknot.cli")
CAL_CMD = (sys.executable, str(BENCH / "calibrate.py"))

# span groups behind the per-layer metrics; "cli" takes every cli.* span
GROUPS = {
    "exactnum.mul": ("exactnum.Cyc.__mul__", "exactnum.Cyc.__rmul__"),
    "exactnum.addsub": (
        "exactnum.Cyc.__add__", "exactnum.Cyc.__radd__", "exactnum.Cyc.__sub__",
        "exactnum.Cyc.__rsub__", "exactnum.Cyc.__neg__",
    ),
    "exactnum.lift": ("exactnum.Cyc.lift",),
    "exactnum.conj": ("exactnum.Cyc.conj",),
    "exactnum.inverse": ("exactnum.Cyc.inverse",),
    "exactnum.min_form": ("exactnum.Cyc.min_form",),
    "exactnum.roots": ("exactnum.cyc_root", "exactnum.turn_to_root"),
    "exactnum.enumerate_unit_elements": ("exactnum.enumerate_unit_elements",),
    "geom.signed_area_tri": ("geom.signed_area_tri",),
    "geom.polygon_vertices": ("geom.polygon_vertices",),
    "geom.rotate": ("geom.rotate",),
    "quandle.cocycle_phi": ("quandle.cocycle_phi",),
    "diagram.total_weight": ("diagram.total_weight",),
    "diagram.closed_form_weight": ("diagram.closed_form_weight",),
    "diagram.generic_moves": ("diagram.shift_generic", "diagram.switch_generic"),
    "trochoid.moves": ("trochoid.shift", "trochoid.switch"),
    "trochoid.derive_coloring": ("trochoid.derive_coloring",),
    "trochoid.classify": ("trochoid.classify",),
    "render.svg": ("render.render_trochoid_svg",),
}

# (group, statistic) pairs reported by the traced run
LAYER_STATS = [
    ("exactnum.mul", "calls"), ("exactnum.mul", "self_s"),
    ("exactnum.addsub", "calls"), ("exactnum.addsub", "self_s"),
    ("exactnum.lift", "calls"), ("exactnum.lift", "self_s"),
    ("exactnum.conj", "self_s"),
    ("exactnum.inverse", "calls"), ("exactnum.inverse", "self_s"),
    ("exactnum.min_form", "calls"), ("exactnum.min_form", "self_s"),
    ("exactnum.roots", "self_s"),
    ("exactnum.enumerate_unit_elements", "self_s"),
    ("geom.signed_area_tri", "calls"), ("geom.signed_area_tri", "self_s"),
    ("geom.polygon_vertices", "self_s"),
    ("geom.rotate", "calls"), ("geom.rotate", "self_s"),
    ("quandle.cocycle_phi", "calls"), ("quandle.cocycle_phi", "self_s"),
    ("diagram.total_weight", "self_s"),
    ("diagram.closed_form_weight", "self_s"),
    ("diagram.generic_moves", "calls"),
    ("trochoid.moves", "calls"), ("trochoid.moves", "self_s"),
    ("trochoid.derive_coloring", "self_s"),
    ("trochoid.classify", "self_s"), ("trochoid.classify", "total_s"),
    ("render.svg", "self_s"),
    ("cli", "self_s"),
]

# Cyc multiply levels counted one by one; the rest land in Lother
MUL_LEVELS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15, 20, 24, 30, 60)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

# The host's speed drifts by up to a factor of two over minutes, and
# jobs, set-up and any other CPU-bound work in a fresh interpreter drift
# together.  After every job the runner times calibrate.py, a fixed
# piece of pure-Python work that does not touch rotknot, until the
# calibration time adds up to at least CAL_SHARE of the job time so far.
# Every reported time is scaled by CAL_REF_S over the run's mean
# calibration CPU time, so it reads as seconds on a host where
# calibrate.py takes CAL_REF_S of CPU time: its typical time on the
# 2-vCPU x86-64 host (CPython 3.11) where the baseline was taken.  The
# calibration's wall time tracked the jobs' wall time less well than its
# CPU time did.
CAL_SHARE = 0.2
CAL_REF_S = 0.15


# ---------------------------------------------------------------------------
# running one child process


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def run_child(cmd, env: dict) -> Child:
    """Run cmd to completion; CPU time and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode, out.read(), err.read(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        )


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Outcome:
    status: str  # "ok", "refused" (exit 2 with an error line) or "wrong"
    detail: str = ""
    verdict: str | None = None
    witness_moves: int = 0


def check(job, code: int, stdout: bytes, stderr: str, golden: dict) -> Outcome:
    """Judge one job's exit code and output against what it must produce."""
    if "Traceback (most recent call last)" in stderr:
        return Outcome("wrong", "traceback")
    expected_code = job.case.code if job.case else 0
    if code == 2 and expected_code != 2:
        lines = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
        if lines:
            return Outcome("refused", lines[0])
    if job.case is None:
        if code != 0:
            return Outcome("wrong", f"exit {code}")
        if golden.get(job.key) != hashlib.sha256(stdout).hexdigest():
            return Outcome("wrong", "stdout differs from the golden hash")
        return Outcome("ok")
    return _check_classify(job.case, code, stdout)


def _check_classify(case, code: int, stdout: bytes) -> Outcome:
    from rotknot.trochoid import MoveSeq, replay_spec, same_trochoid

    try:
        result = json.loads(stdout)["result"]
        verdict, reason = result["verdict"], result.get("reason")
    except (ValueError, KeyError, TypeError):
        return Outcome("wrong", f"exit {code}, unreadable result")
    got = Outcome("ok", verdict=verdict)
    if (code, verdict, reason) != (case.code, case.verdict, case.reason):
        got.status, got.detail = "wrong", f"exit {code}, {verdict}, {reason}"
    elif verdict == "Equivalent":
        try:
            moves = MoveSeq(tuple(result["witness"]))
            replays = same_trochoid(replay_spec(moves, case.a.trochoid()), case.b.trochoid())
        except (KeyError, TypeError, ValueError):
            replays = False
        if not replays:
            got.status, got.detail = "wrong", "witness does not replay"
        else:
            got.witness_moves = len(moves)
    elif verdict == "Undetermined" and "V_sigma" not in result.get("note", ""):
        got.status, got.detail = "wrong", "Undetermined without a V_sigma note"
    return got


# ---------------------------------------------------------------------------
# statistics


def summary(values: list[float]) -> dict:
    """Mean, median, quartiles and count; quartiles need two values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"mean": statistics.mean(values), "median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
    }


def job_row(pass_no: int, job, child: Child, outcome: Outcome) -> dict:
    return {
        "pass": pass_no,
        "argv": job.key,
        "exit": child.code,
        "status": outcome.status,
        "detail": outcome.detail,
        "verdict": outcome.verdict,
        "wall_s": child.wall_s,
        "cpu_s": child.cpu_s,
        "rss_mb": child.rss_mb,
        "sha256": hashlib.sha256(child.stdout).hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two modes


def timed_run(jobs, seconds: float, golden: dict, env: dict) -> tuple[dict, dict]:
    """Passes over the job list until `seconds` elapse; tracing is off.

    Each pass starts one job later in the list than the one before.  A
    set-up sample (a fresh interpreter importing rotknot.cli) precedes
    every job and calibration samples follow it, so slow drift of the
    machine spreads over all of them.
    """
    rows, setup, cal, passes = [], [], [], []
    job_s = cal_s = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first = len(passes) % len(jobs)
        wall = cpu = rss = 0.0
        for job in jobs[first:] + jobs[:first]:
            probe = run_child(SETUP_CMD, env)
            if probe.code != 0:
                raise RuntimeError(f"import rotknot.cli failed: {probe.stderr.decode()}")
            setup.append(probe.wall_s)
            child = run_child((sys.executable, "-m", "rotknot", *job.argv), env)
            outcome = check(job, child.code, child.stdout, child.stderr.decode(), golden)
            rows.append(job_row(len(passes), job, child, outcome))
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            job_s += child.wall_s
            while True:
                sample = run_child(CAL_CMD, env)
                if sample.code != 0:
                    raise RuntimeError(f"calibrate.py failed: {sample.stderr.decode()}")
                cal.append((sample.wall_s, sample.cpu_s))
                cal_s += sample.wall_s
                if cal_s >= CAL_SHARE * job_s:
                    break
        passes.append((wall, cpu, rss))
    # host speed over the run: mean calibration CPU time over its reference
    factor = statistics.mean(c[1] for c in cal) / CAL_REF_S
    stats = {
        "raw_wall_s": summary([p[0] for p in passes]),
        "raw_cpu_s": summary([p[1] for p in passes]),
        "raw_setup_s": summary(setup),
        "calibration_wall_s": summary([c[0] for c in cal]),
        "calibration_cpu_s": summary([c[1] for c in cal]),
        "peak_rss_mb": summary([p[2] for p in passes]),
    }
    attempted = len(rows)
    passed = sum(r["status"] == "ok" for r in rows)
    # Pass times on a shared host are bimodal (slow and fast periods of
    # several seconds), so the median over a few passes jumps between the
    # modes; the mean over the run's passes is the steadier estimate.
    metrics = {
        "wall_s": (stats["raw_wall_s"]["mean"] / factor, "s"),
        "cpu_s": (stats["raw_cpu_s"]["mean"] / factor, "s"),
        "setup_s": (stats["raw_setup_s"]["median"] / factor, "s"),
        "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB"),
        "pass_ratio": (passed / attempted, "ratio"),
    }
    detail = {
        "passes": len(passes),
        "calibration": {"ref_s": CAL_REF_S, "factor": factor},
        "stats": stats,
        "rows": rows,
    }
    return _result(rows, metrics), detail


def group_stats(edges: list) -> dict:
    """calls / self_s / total_s per group; total_s skips calls from inside
    the same group, so recursion is not counted twice."""
    members = {name: group for group, names in GROUPS.items() for name in names}
    out = {g: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for g in [*GROUPS, "cli"]}
    for parent, name, calls, total, self_s in edges:
        group = "cli" if name.startswith("cli.") else members.get(name)
        if group is None:
            continue
        parent_group = "cli" if (parent or "").startswith("cli.") else members.get(parent)
        acc = out[group]
        acc["calls"] += calls
        acc["self_s"] += self_s
        if parent_group != group:
            acc["total_s"] += total
    return out


def traced_run(jobs, golden: dict, env: dict) -> tuple[dict, dict]:
    """One pass; each job runs plain and then traced in fresh interpreters."""
    rows, edges = [], {}
    mul_levels, mixed = Counter(), 0
    plain_s = traced_s = 0.0
    stdout_bytes = witness_moves = mismatches = 0
    for job in jobs:
        plain = json.loads(run_child((sys.executable, SPANS, "plain", *job.argv), env).stdout)
        child = run_child((sys.executable, SPANS, "traced", *job.argv), env)
        traced = json.loads(child.stdout)
        plain_s += plain["seconds"]
        traced_s += traced["seconds"]
        stdout = traced["stdout"].encode()
        digest = hashlib.sha256(stdout).hexdigest()
        outcome = check(job, traced["code"], stdout, traced["stderr"], golden)
        mismatches += job.key in golden and golden[job.key] != digest
        stdout_bytes += len(stdout)
        witness_moves += outcome.witness_moves
        trace = traced["trace"]
        for parent, name, calls, total, self_s in trace["edges"]:
            rec = edges.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        mul_levels.update({int(k): v for k, v in trace["mul_levels"].items()})
        mixed += trace["mixed_level_muls"]
        rows.append({
            "argv": job.key, "exit": traced["code"], "status": outcome.status,
            "detail": outcome.detail, "verdict": outcome.verdict,
            "plain_s": plain["seconds"], "traced_s": traced["seconds"],
            "rss_mb": child.rss_mb, "sha256": digest,
        })
    edge_list = [[p, n, *rec] for (p, n), rec in sorted(edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
    groups = group_stats(edge_list)
    metrics = {
        f"{group}.{stat}": (groups[group][stat], UNITS[stat]) for group, stat in LAYER_STATS
    }
    metrics["exactnum.mul.mixed_level_calls"] = (mixed, "count")
    for level in MUL_LEVELS:
        metrics[f"exactnum.mul.calls.L{level}"] = (mul_levels[level], "count")
    other = sum(v for k, v in mul_levels.items() if k not in MUL_LEVELS)
    metrics["exactnum.mul.calls.Lother"] = (other, "count")
    moves = groups["trochoid.moves"]["calls"]
    metrics["trochoid.witness_moves"] = (witness_moves, "count")
    metrics["trochoid.useful_ratio"] = (witness_moves / moves if moves else 0.0, "ratio")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["cli.golden_mismatch"] = (mismatches, "count")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    failed = sum(r["status"] != "ok" for r in rows)
    metrics["fail_ratio"] = (failed / len(rows), "ratio")
    detail = {"rows": rows, "spans": edge_list, "mul_levels": dict(sorted(mul_levels.items()))}
    return _result(rows, metrics), detail


def _result(rows: list, metrics: dict) -> dict:
    return {
        "correct": not any(r["status"] == "wrong" for r in rows),
        "attempted": len(rows),
        "failed": sum(r["status"] != "ok" for r in rows),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# entry point


def record_golden(env: dict) -> None:
    """Hash the stdout of every fixed job that passes its other checks."""
    from workloads import CLASSIFY_FIXED, CLASSIFY_TRACED_ONLY, SUITES, WEIGHTS, Job

    cases = CLASSIFY_FIXED + CLASSIFY_TRACED_ONLY
    jobs = [Job(a) for a in WEIGHTS + SUITES] + [Job(c.argv(), c) for c in cases]
    golden = {}
    for job in jobs:
        child = run_child((sys.executable, "-m", "rotknot", *job.argv), env)
        digest = hashlib.sha256(child.stdout).hexdigest()
        outcome = check(job, child.code, child.stdout, child.stderr.decode(), {job.key: digest})
        if outcome.status == "ok":
            golden[job.key] = digest
        print(f"{outcome.status:8s} {job.key}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    from workloads import WORKLOADS, build_jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "rotknot" / "cli.py").is_file():
        print(f"error: no rotknot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = child_env()
    if args.record_golden:
        record_golden(env)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    jobs = build_jobs(args.workload, args.seed, traced=bool(args.trace))
    golden = json.loads(GOLDEN.read_text())
    if args.trace:
        result, detail = traced_run(jobs, golden, env)
    else:
        result, detail = timed_run(jobs, args.seconds, golden, env)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        **detail,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
