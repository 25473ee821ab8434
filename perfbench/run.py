"""Benchmark of the `hiddenpop` CLI, checked against the synthetic oracle.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, no threads: every invocation is a child process
started only after the previous one has ended (a closed loop).  Children run
the checkout's own `src/` (PYTHONPATH, never an installed copy), with the
workload's inputs generated from --seed during set-up.

--trace 0  sets up several times (setup_s is the median; forest_impute sets
           up once, since training takes about as long as the timed run),
           then repeats the timed invocation for about --seconds and
           reports the median wall_s, cpu_s and peak_rss_mb of the
           children (from os.wait4) and the oracle scores of their outputs.
           member_count_rel_err, failed_frac and the slowest wall_s are
           printed above the JSON line but are not BENCHMARK.json metrics.
--trace 1  sets up once, runs the timed invocation untraced once and then
           once under perfbench/tracer.py, and reports the per-layer
           metrics named in BENCHMARK.json.

Every invocation's outputs are checked (exit code, manifest digests, one
expanded row per register row, exact/linked kinds equal to truth.csv,
predicted scores in [0, 1]); a failed check counts in `failed`.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
TIME_LIMIT_S = 170.0  # the whole run, set-up included
SETUP_REPEATS = 3
# counts the tracer takes per call that are averaged, not summed, over calls
AVERAGED_COUNTS = {"oob_error"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Workload:
    setup: Callable      # (seed, data_dir, model_dir) -> list of argv
    timed: Callable      # (seed, data_dir, model_dir, out_dir) -> argv
    expanded: str        # expanded_register.csv, relative to the out dir
    setup_repeats: int = SETUP_REPEATS


def _synth(seed, data, *extra):
    return ["synth", "--seed", str(seed), "--out", str(data), *extra]


WORKLOADS = {
    "paper_pipeline": Workload(
        setup=lambda seed, data, model: [_synth(seed, data)],
        timed=lambda seed, data, model, out: [
            "pipeline", "--data-dir", str(data), "--seed", str(seed),
            "--model", "both", "--k", "10", "--trees", "500", "--out", str(out)],
        expanded="impute/expanded_register.csv",
    ),
    "large_register_logistic": Workload(
        setup=lambda seed, data, model: [_synth(seed, data, "--n-register", "200000")],
        timed=lambda seed, data, model, out: [
            "pipeline", "--data-dir", str(data), "--seed", str(seed),
            "--model", "logistic", "--k", "10", "--out", str(out)],
        expanded="impute/expanded_register.csv",
    ),
    "forest_impute": Workload(
        setup=lambda seed, data, model: [
            _synth(seed, data),
            ["train", "--data-dir", str(data), "--model", "forest", "--k", "0",
             "--trees", "500", "--seed", str(seed), "--out", str(model)]],
        timed=lambda seed, data, model, out: [
            "impute", "--data-dir", str(data),
            "--model-file", str(model / "model_forest.json"), "--out", str(out)],
        expanded="expanded_register.csv",
        setup_repeats=1,
    ),
}


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Invocation:
    child: Child
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


class Runner:
    """Starts children one at a time under one deadline for the whole run."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "HIDDENPOP_DATA_DIR"}
        self.env["PYTHONPATH"] = str(SRC)
        self._logs = 0

    def run(self, argv) -> Child:
        """Run `python3 <argv>` to its end; wall from spawn to exit, usage from wait4."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[:3]))
        self._logs += 1
        log_path = self.run_dir / f"child{self._logs}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.run_dir,
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"out of time: {' '.join(argv[:3])} was stopped")
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"exit code {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0)

    def cli(self, args) -> Child:
        return self.run(["-m", "hiddenpop.cli", *args])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_truth(path: Path) -> dict:
    """truth.csv -> link_key: kind."""
    with open(path, newline="", encoding="utf-8") as f:
        return {row["link_key"]: int(row["kind"]) for row in csv.DictReader(f)}


def check_outputs(out: Path, expanded_rel: str, truth: dict) -> tuple[list, dict]:
    """Semantic output checks; returns (problems, oracle scores)."""
    problems = []
    manifest_path = out / "run_manifest.json"
    if not manifest_path.is_file():
        return [f"{manifest_path.name} missing"], {}
    outputs = json.loads(manifest_path.read_text())["outputs"]
    for rel, digest in outputs.items():
        path = out / rel
        if not path.is_file():
            problems.append(f"manifest output {rel} missing")
        elif _sha256(path) != digest:
            problems.append(f"manifest output {rel} does not match its SHA-256")
    expanded = out / expanded_rel
    if expanded_rel not in outputs or not expanded.is_file():
        return problems + [f"{expanded_rel} not written"], {}

    rows, members, predicted, predicted_right, wrong_known, bad_scores = 0, 0, 0, 0, 0, 0
    seen = set()
    with open(expanded, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            rows += 1
            key, kind = row["link_key"], int(row["kind"])
            seen.add(key)
            members += int(row["delta"]) == 1
            true_kind = truth.get(key)
            if row["provenance"] == "predicted":
                score = float(row["predicted_score"])
                bad_scores += not 0.0 <= score <= 1.0
                predicted += 1
                predicted_right += kind == true_kind
            else:
                wrong_known += kind != true_kind
    if rows != len(truth) or seen != truth.keys():
        problems.append(f"{rows} expanded rows for {len(truth)} register rows")
    if wrong_known:
        problems.append(f"{wrong_known} exact/linked rows disagree with truth.csv")
    if bad_scores:
        problems.append(f"{bad_scores} predicted scores outside [0, 1]")
    if not predicted:
        problems.append("no predicted rows")
        return problems, {}
    true_members = sum(kind != 0 for kind in truth.values())
    return problems, {
        "imputed_pa_accuracy": predicted_right / predicted,
        "member_count_rel_err": abs(members - true_members) / true_members,
        "estimated_members": members,
        "true_members": true_members,
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without looking above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe_package(runner: Runner) -> dict:
    """Import hiddenpop the way the children do; it must come from this checkout."""
    probe = runner.run_dir / "probe.json"
    code = ("import json, sys, numpy, hiddenpop; json.dump({'file': hiddenpop.__file__, "
            "'numpy': numpy.__version__}, open(sys.argv[1], 'w'))")
    child = runner.run(["-c", code, str(probe)])
    if child.exit_code != 0:
        raise BenchError("cannot import hiddenpop from " + str(SRC))
    found = json.loads(probe.read_text())
    if not Path(found["file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"hiddenpop resolves to {found['file']}, outside {SRC}")
    return found


def set_up(runner: Runner, workload: Workload, seed: int, repeats: int):
    """Run the set-up `repeats` times into fresh directories; keep the last."""
    times = []
    for rep in range(repeats):
        data, model = runner.run_dir / f"data{rep}", runner.run_dir / f"model{rep}"
        start = time.perf_counter()
        for argv in workload.setup(seed, data, model):
            if runner.cli(argv).exit_code != 0:
                raise BenchError(f"set-up failed: hiddenpop {' '.join(argv)}")
        times.append(time.perf_counter() - start)
        if rep + 1 < repeats:
            shutil.rmtree(data)
            shutil.rmtree(model, ignore_errors=True)
    return data, model, times


def invoke(runner: Runner, argv, out: Path, workload: Workload, truth: dict,
           traced_spans: Path | None = None) -> Invocation:
    if traced_spans is None:
        child = runner.cli(argv)
    else:
        child = runner.run([str(TRACER), str(traced_spans), "--", *argv])
    try:
        if child.exit_code != 0:
            return Invocation(child, [f"exit code {child.exit_code}"])
        problems, quality = check_outputs(out, workload.expanded, truth)
    except (ValueError, KeyError) as exc:  # malformed manifest or CSV
        problems, quality = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return Invocation(child, problems, quality)


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                  declared: list) -> tuple[dict, list]:
    """Per-layer metrics from the tracer's spans; returns (metrics, warnings).

    A layer whose wrapped name was missing at a site, or whose counts could
    not be taken, is left out rather than reported as zero.  A layer the
    workload never calls reads 0, with a note.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    top_level = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        if s["parent"] is None:
            top_level += duration
        else:
            covered[s["parent"]] += duration
    layers = defaultdict(lambda: defaultdict(float))
    for s, child_time in zip(spans, covered):
        agg = layers[s["name"]]
        agg["calls"] += 1
        agg["self_s"] += s["end"] - s["start"] - child_time
        for key, value in s["counts"].items():
            agg[key] += value
    for agg in layers.values():
        for key in AVERAGED_COUNTS & agg.keys():
            agg[key] /= agg["calls"]

    missing_fns = {site.rsplit(".", 1)[1] for site in trace["missing"]}
    warnings = [f"wrapped name {site} missing at its site" for site in trace["missing"]]
    metrics = {}
    idle = []
    for m in declared:
        name = m["name"]
        if name == "cli.untraced_s":
            value = traced_wall - top_level
        elif name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        else:
            layer, stat = name.rsplit(".", 1)
            fn = layer.rsplit(".", 1)[1]
            if fn in missing_fns:
                warnings.append(f"{name} omitted: {fn} is not traced at every site")
                continue
            if layer in trace["uncounted"] and stat not in ("calls", "self_s"):
                warnings.append(f"{name} omitted: its counts could not be taken")
                continue
            agg = layers.get(layer, {})
            if not agg and layer not in idle:
                idle.append(layer)
            if stat.endswith("_per_s"):
                busy = agg.get("self_s", 0.0)
                value = agg.get(stat[:-len("_per_s")], 0.0) / busy if busy else 0.0
            else:
                value = agg.get(stat, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    warnings += [f"{layer} not called on this workload; its metrics read 0" for layer in idle]
    return metrics, warnings


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(run_dir, time.monotonic() + TIME_LIMIT_S)
    conditions = {
        "workload": name, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": probe_package(runner)["numpy"], "commit": git_commit(),
        "loadavg_before": os.getloadavg(),
    }

    data, model, setup_times = set_up(runner, workload, seed,
                                      1 if trace else workload.setup_repeats)
    truth = read_truth(data / "truth.csv")
    out = run_dir / "out"
    argv = workload.timed(seed, data, model, out)

    invocations = []
    start = time.perf_counter()
    while True:
        invocations.append(invoke(runner, argv, out, workload, truth))
        elapsed = time.perf_counter() - start
        # stop when one more invocation of average length would overrun --seconds
        if trace or elapsed * (len(invocations) + 1) / len(invocations) > seconds:
            break

    walls = sorted(i.child.wall_s for i in invocations)
    report = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(i.child.cpu_s for i in invocations), "s"),
        "peak_rss_mb": (statistics.median(i.child.peak_rss_mb for i in invocations), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }

    warnings = []
    if trace:
        spans_path = run_dir / "spans.json"
        traced = invoke(runner, argv, out, workload, truth, traced_spans=spans_path)
        invocations.append(traced)
        if spans_path.is_file():
            metrics, warnings = layer_metrics(
                json.loads(spans_path.read_text()), traced.child.wall_s,
                report["wall_s"][0], spec["per_layer"])
        else:
            metrics = {}
    conditions["loadavg_after"] = os.getloadavg()

    failed = sum(bool(i.problems) for i in invocations)
    scored = [i.quality for i in invocations if i.quality]
    for key in ("imputed_pa_accuracy", "member_count_rel_err"):
        report[key] = (statistics.median(q[key] for q in scored) if scored else 0.0,
                       "fraction")
    report["failed_frac"] = (failed / len(invocations), "fraction")

    print(f"conditions {json.dumps(conditions)}")
    print(f"{name} seed {seed}: {len(invocations)} invocations, "
          f"{len(setup_times)} set-ups" + (" (last one traced, not in wall_s)" if trace else ""))
    for key, (value, unit) in report.items():
        print(f"  {key:<22} {value:.6g} {unit}")
    print(f"  {'wall_s p100':<22} {walls[-1]:.6g} s (max of n={len(walls)})")
    if scored:
        print(f"  estimated members {scored[-1]['estimated_members']} "
              f"of {scored[-1]['true_members']} true")
    if trace:
        for key, m in metrics.items():
            print(f"  {key:<46} {m['value']:.6g} {m['unit']}")
    for w in warnings:
        print(f"warning: {w}")

    if not trace:
        metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": failed == 0 and (not trace or bool(metrics)),
            "attempted": len(invocations), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops and reaps its child (see Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hiddenpop" / "cli.py").is_file():
        print(f"error: no hiddenpop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
