#!/usr/bin/env python3
"""Benchmark of the proctag curation pipeline.

Run from the root of a proctag checkout:

    python3 perfbench/run.py --workload pipeline-mock-20k --seed 1 --seconds 20 --trace 0

Set-up writes the workload's inputs from the seed (three times, timed; the
median is ``setup_s``). Each timed pass then runs the workload's ``proctag``
commands, each in a fresh child process so that its peak memory is its own,
and checks every output. Passes repeat while another one fits in
``--seconds``; at least one always runs. End-to-end metrics are medians over
passes.

With ``--trace 1`` every pass runs twice, untraced and then traced, and the
per-layer metrics come from the traced one (see ``tracing.py``).

Everything goes to standard output; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 whenever that line is printed, and 2 when the working directory
holds no proctag source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
# every run ends well inside the 180 s a run may take
DEADLINE_S = 150
SAMPLE_RATIO = 0.3
COVERAGE_TARGET = 0.95
# the traced pass's layer self times must account for its wall time
LAYER_SUM_TOLERANCE = 0.05


@dataclass
class Child:
    argv: list[str]
    code: int
    wall_s: float          # spawn to exit, as a user waits for it
    inner_s: float         # the command itself, interpreter start-up excluded
    rss_mb: float
    trace: dict | None
    output: str


@dataclass
class Pass:
    """One run of a workload's commands over fresh outputs."""

    n_records: int
    children: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    discarded: int = 0
    manifest: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.n_records if self.problems else self.discarded

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def inner_s(self) -> float:
        return sum(c.inner_s for c in self.children)


def inflight() -> str:
    """Generation threads: two, but never more than the machine has cores."""
    return str(min(2, os.cpu_count() or 1))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Starts child processes and waits for each to end."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self._ids = itertools.count()

    def run(self, argv: list[str], trace: bool = False) -> Child:
        n = next(self._ids)
        result, log = self.work / f"child{n}.json", self.work / f"child{n}.log"
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
        cmd += ["--trace"] if trace else []
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--", *argv], cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = json.loads(result.read_text()) if result.exists() else {}
        return Child(argv=argv, code=proc.returncode, wall_s=wall,
                     inner_s=report.get("wall_s", wall), rss_mb=usage.ru_maxrss * 1024 / 1e6,
                     trace=report.get("trace"),
                     output=log.read_text(encoding="utf-8", errors="replace"))


# -- workloads ----------------------------------------------------------------


class PassCommands:
    """Commands of one pass; every command must exit 0."""

    def __init__(self, runner: Runner, p: Pass, trace: bool):
        self.runner, self.p, self.trace = runner, p, trace

    def __call__(self, *argv: object) -> Child:
        child = self.runner.run([str(a) for a in argv], self.trace)
        self.p.children.append(child)
        checks.exited_ok(child.code, child.argv)
        return child


def pipeline_pass(s: PassCommands, inputs: wl.Inputs, out: Path, seed: int,
                  *extra: str) -> list[dict]:
    """Runs ``proctag pipeline`` and returns the generate artifact's records."""
    ids, p = inputs.ids, s.p
    s("pipeline", "--dataset", inputs.dataset, "--out", out, "--mode", "ratio",
      "--ratio", SAMPLE_RATIO, "--seed", seed, "--max-inflight", inflight(), *extra)
    p.discarded = checks.discarded(out, ids)
    generated = checks.read_jsonl(out, "generate")
    checks.once_each(generated, ids, "generate")
    checks.once_each(checks.read_jsonl(out, "tags_raw"), ids, "tags_raw")
    checks.once_each(checks.read_jsonl(out, "tags"), ids, "tags")
    checks.selection(out, ids, SAMPLE_RATIO)
    p.facts["generate_sha"] = sha256(checks.stage_path(out, "generate"))
    return generated


def mock_pass(s: PassCommands, inputs: wl.Inputs, out: Path, seed: int) -> None:
    generated = pipeline_pass(s, inputs, out, seed, "--backend", "mock")
    preds = out.parent / "preds.jsonl"
    with open(preds, "w", encoding="utf-8") as fh:
        for rec in generated:
            answer = rec["annotations"].get("process", {}).get("final_answer")
            fh.write(json.dumps({"record_id": rec["record_id"], "predicted": answer or ""}) + "\n")
    child = s("eval", "anls", "--pred", preds, "--gold", inputs.dataset)
    report = json.loads(child.output.strip().splitlines()[-1])
    if report["count"] != len(inputs.ids) or not 0.0 <= report["anls"] <= 1.0:
        raise checks.CheckFailed(f"eval anls reported {report}")


def replay_pass(s: PassCommands, inputs: wl.Inputs, out: Path, seed: int) -> None:
    pipeline_pass(s, inputs, out, seed, "--style", "plaintext", "--backend", "cache",
                  "--cache-dir", str(inputs.cache_dir))


def curate_pass(s: PassCommands, inputs: wl.Inputs, out: Path, seed: int) -> None:
    ids = inputs.ids
    shutil.copytree(inputs.seed_out, out)
    s("tag", "--stage", "normalize", "--out", out)
    tagged = checks.read_jsonl(out, "tags")
    checks.once_each(tagged, ids, "tags")
    merges = checks.read_json(out, "vocab")["merges"]
    if not any((m["first"], m["second"]) == wl.PLANTED_PAIR for m in merges):
        raise checks.CheckFailed(f"planted pair {wl.PLANTED_PAIR} was not merged")
    s("sample", "--out", out, "--mode", "ratio", "--ratio", SAMPLE_RATIO)
    checks.selection(out, ids, SAMPLE_RATIO)
    s("sample", "--out", out, "--mode", "coverage", "--coverage", COVERAGE_TARGET)
    checks.coverage_reached(checks.selection(out, ids), tagged, COVERAGE_TARGET)
    s("sample", "--out", out, "--mode", "random", "--ratio", SAMPLE_RATIO, "--seed", seed)
    checks.selection(out, ids, SAMPLE_RATIO)
    s("assess", "--out", out)
    if checks.read_json(out, "assess")["record_count"] != len(ids):
        raise checks.CheckFailed("assess: record count differs from the input")


def replay_matches_mock(runner: Runner, inputs: wl.Inputs, work: Path,
                        passes: list[Pass]) -> str | None:
    """A mock-backend ``generate`` over the set-up's plaintext renderings
    must be byte-identical to each replayed ``generate``."""
    ref = work / "reference"
    shutil.copytree(inputs.render_out, ref)
    child = runner.run(["generate", "--backend", "mock", "--dataset", str(inputs.dataset),
                        "--out", str(ref), "--max-inflight", "1"])
    if child.code != 0:
        return f"reference mock generate exited {child.code}"
    expected = sha256(checks.stage_path(ref, "generate"))
    if any(p.facts.get("generate_sha") != expected for p in passes):
        return "replayed generate artifact differs from the mock backend's"
    return None


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int, wl.Scale], wl.Inputs]
    run_pass: Callable[[PassCommands, wl.Inputs, Path, int], None]
    # a check over all passes of a run; returns the problem, if any
    run_check: Callable[[Runner, wl.Inputs, Path, list[Pass]], str | None] | None = None


WORKLOADS = {
    "pipeline-mock-20k": Workload(wl.setup_documents, mock_pass),
    "curate-zipf-20k": Workload(wl.setup_tags, curate_pass),
    "pipeline-replay-20k": Workload(wl.setup_replay, replay_pass, replay_matches_mock),
}


def run_pass(runner: Runner, workload: Workload, inputs: wl.Inputs, out: Path,
             seed: int, trace: bool) -> Pass:
    p = Pass(n_records=len(inputs.ids))
    try:
        workload.run_pass(PassCommands(runner, p, trace), inputs, out, seed)
        p.manifest = checks.manifest(out)
        seeded = set(os.listdir(inputs.seed_out)) if inputs.seed_out else set()
        p.facts["artifact_bytes"] = sum(f.stat().st_size for f in out.iterdir()
                                        if f.name not in seeded)
        p.facts["vocab_filtered"] = len(checks.read_json(out, "vocab")["stages"]["filtered"])
    except checks.CheckFailed as exc:
        p.problems.append(str(exc))
    except (KeyError, ValueError, TypeError, OSError) as exc:
        p.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return p


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def deterministic(root: Path, key: str, passes: list[Pass]) -> str | None:
    """Every pass of one seed leaves the same manifest, in this run and in
    any earlier run of the same source tree in this checkout."""
    record = root / WORK_DIR / "manifests" / f"{key}.json"
    if record.exists():
        expected = json.loads(record.read_text())
    else:
        expected = passes[0].manifest
        if not any(p.problems for p in passes):
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(expected, sort_keys=True))
    if any(p.manifest != expected for p in passes):
        return "manifest differs between runs of the same seed"
    return None


# -- metrics -------------------------------------------------------------------


def end_to_end(p: Pass, setup_s: float) -> dict[str, tuple[float, str]]:
    completed = p.n_records - p.failed
    return {
        "records_per_s": (completed / p.wall_s if p.wall_s else 0.0, "records/s"),
        "peak_rss_mb": (max((c.rss_mb for c in p.children), default=0.0), "MB"),
        "setup_s": (setup_s, "s"),
        "completed_ratio": (completed / p.n_records, "ratio"),
    }


def per_layer(traced: Pass, plain: Pass) -> dict[str, tuple[float, str]]:
    keys: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    layers: dict[str, float] = defaultdict(float)
    for child in traced.children:
        for key, agg in (child.trace or {}).get("keys", {}).items():
            for name, value in agg.items():
                keys[key][name] += value
        for layer, self_s in (child.trace or {}).get("layers", {}).items():
            layers[layer] += self_s
    completions = int(keys["procgen.complete"]["calls"])
    parse = keys["procgen.parse_response"]
    wall = traced.inner_s
    m = {
        "ingest.load_dataset.calls": (int(keys["ingest.load_dataset"]["calls"]), "count"),
        "ingest.load_dataset.s": (keys["ingest.load_dataset"]["s"], "s"),
        "layout.clean_inputs.s": (keys["layout.clean_inputs"]["s"], "s"),
        "layout.associate.s": (keys["layout.associate"]["s"], "s"),
        "layout.pages": (int(keys["layout.clean_inputs"]["calls"]), "count"),
        "render.s": (keys["render"]["s"], "s"),
        "render.pages": (int(keys["render"]["calls"]), "count"),
        "procgen.complete.calls": (completions, "count"),
        "procgen.complete.s": (keys["procgen.complete"]["s"], "s"),
        "procgen.parse_response.s": (parse["s"], "s"),
        "procgen.parse_ok_ratio": ((parse["calls"] - parse["errors"]) / completions
                                   if completions else 0.0, "ratio"),
        "procgen.generate_all.self_s": (keys["procgen.generate_all"]["self_s"], "s"),
        "tagparse.extract.s": (keys["tagparse.extract"]["s"], "s"),
        "tagnorm.frequency_filter.s": (keys["tagnorm.frequency_filter"]["s"], "s"),
        "tagnorm.embed.s": (keys["tagnorm.embed"]["s"], "s"),
        "tagnorm.dbscan.s": (keys["tagnorm.dbscan"]["s"], "s"),
        "tagnorm.aggregate.s": (keys["tagnorm.aggregate"]["s"], "s"),
        "tagnorm.vocab_filtered": (traced.facts.get("vocab_filtered", 0), "count"),
        "assess.sample.s": (keys["assess.sample"]["s"], "s"),
        "assess.sample.calls": (int(keys["assess.sample"]["calls"]), "count"),
        "assess.assess_dataset.s": (keys["assess.assess_dataset"]["s"], "s"),
        "metrics.anls.s": (keys["metrics.anls"]["s"], "s"),
    }
    for stage in tracing.CLI_STAGES:
        m[f"cli.{stage}.s"] = (keys[f"cli.{stage}"]["s"], "s")
    m["cli.artifact_bytes"] = (traced.facts.get("artifact_bytes", 0), "bytes")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (layers[layer], "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.layer_sum_ratio"] = (sum(layers.values()) / wall if wall else 0.0, "ratio")
    m["trace.overhead_s"] = (wall - plain.inner_s, "s")
    return m


def medians(samples: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    return {name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
            for name, (_, unit) in samples[0].items()}


# -- entry point ---------------------------------------------------------------


def measure(args: argparse.Namespace, root: Path, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    scale = wl.SMOKE if args.smoke else wl.FULL
    runner = Runner(root, work, deadline)

    setup_times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        made = workload.setup(work / f"setup{k}", args.seed, scale)
        setup_times.append(time.perf_counter() - start)
        if k == 0:
            inputs = made
        else:
            shutil.rmtree(work / f"setup{k}")

    pairs: list[tuple[Pass, Pass | None]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out = work / f"pass{len(pairs)}"
        plain = run_pass(runner, workload, inputs, out / "plain", args.seed, trace=False)
        traced = (run_pass(runner, workload, inputs, out / "traced", args.seed, trace=True)
                  if args.trace else None)
        shutil.rmtree(out)
        pairs.append((plain, traced))
        took = time.perf_counter() - began
        if (time.perf_counter() - start + took > args.seconds
                or time.monotonic() + 2 * took > deadline):
            break

    passes_s = time.perf_counter() - start
    passes = [p for pair in pairs for p in pair if p is not None]
    problems = [msg for p in passes for msg in p.problems]
    digest = hashlib.sha256(f"{src_digest(root)} {args.workload} {args.seed} "
                            f"{args.smoke}".encode()).hexdigest()[:20]
    run_checks = [deterministic(root, digest, passes)]
    if workload.run_check:
        run_checks.append(workload.run_check(runner, inputs, work, passes))
    for msg in filter(None, run_checks):
        problems.append(msg)
        for p in passes:
            p.problems.append(msg)

    checks_s = time.perf_counter() - start - passes_s
    if args.trace:
        metrics = medians([per_layer(traced, plain) for plain, traced in pairs])
        ratio = metrics["trace.layer_sum_ratio"]["value"]
        if abs(ratio - 1.0) > LAYER_SUM_TOLERANCE:
            problems.append(f"layer self times sum to {ratio:.3f} of the traced wall time")
    else:
        setup_s = statistics.median(setup_times)
        metrics = medians([end_to_end(plain, setup_s) for plain, _ in pairs])

    attempted = sum(p.n_records for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(inputs.ids)} records; set-up "
          + ", ".join(f"{t:.2f}" for t in setup_times) + f" s; passes {passes_s:.1f} s; "
          f"run checks {checks_s:.1f} s")
    for i, (plain, traced) in enumerate(pairs, start=1):
        for label, p in (("plain", plain), ("traced", traced)):
            if p is not None:
                print(f"pass {i} {label}: {p.wall_s:.3f} s over {len(p.children)} commands, "
                      f"peak {max((c.rss_mb for c in p.children), default=0):.1f} MB, "
                      f"{p.failed} failed")
    for msg in problems:
        print(f"check failed: {msg}")
    print(f"failed_ratio {failed / attempted} ratio ({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "proctag" / "cli.py").is_file():
        print(f"error: no proctag source tree under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
