"""Benchmark of the hmmposterior CLI on three workloads from the paper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.json``, metric names in the
root ``BENCHMARK.json``.

A run makes the workload's input files from the seed, then starts one fresh
client process (``client.py``) that issues the workload's CLI calls in a
closed loop for about S seconds, with BLAS and OpenMP pools capped at one
thread.  With ``--trace 0`` it reports the end-to-end metrics:

  wall_p75_s   upper quartile (linear interpolation) of the wall times of
               the passes over the workload's CLI calls; passes with a failed
               call are left out.  The median is in the details.  The upper
               quartile is reported because it varies less from run to run
               on a shared host whose CPU speed moves by up to about 40% for
               seconds to minutes at a time: the median of a 30 s run follows
               the share of time spent fast, while nearly every run has some
               passes at the slower speed.  Over the same ten 30 s runs per
               workload on a 2-vCPU Xeon, the quartile spread across runs was
               0.08-0.14 for the upper quartile and 0.10-0.23 for the median
  peak_rss_mb  peak RSS of the client process
  setup_s      median time to import hmmposterior and hmmposterior.cli in a
               fresh process, over the client and six import-only probes,
               three before it and three after it, so that the median does
               not hang on the host's speed during a few seconds

With ``--trace 1`` an untraced client runs first, then a fresh traced client
runs one pass with wrappers on the package's layer functions
(``tracer.py``), and the per-layer metrics of that pass are reported.
``trace.overhead_s`` compares the traced pass with the untraced client's
first pass, since both are the first pass in a fresh process.

Every run checks the outputs of each client's last pass (``checks.py``)
against ``reference.jsonl`` when it holds the seed, and always against the
invariants; every earlier pass must have produced the same outputs.
Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` CLI calls, and ``metrics``.  The line before it
holds the run's details (environment, sizes, samples, failed checks), which
are also written with the spans to ``.perfbench/<run>/result.json``.

``make_reference.py`` records the reference outputs; ``test_perfbench.py``
tests the checks and the tracer (``PYTHONPATH=src python -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# cap the thread pools before numpy loads; the clients inherit the setting
THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAP)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import LAYERS, COUNTERS, layer_totals, traced_wall  # noqa: E402

HERE = Path(__file__).resolve().parent
PROBES = 3  # before the client, and again after it
PROBE_RESERVE_S = 10.0  # of the run budget, kept for the probes after the client
PATH_SEED = 2504_15156
REFERENCE_SEEDS = range(21)  # the seeds reference.jsonl holds
RUN_BUDGET_S = 165.0  # every run must end within 180 s


def simulate_counts(model: dict, n: int, seed: int) -> np.ndarray:
    """Poisson counts drawn from the seed along a hidden path drawn from PATH_SEED.

    The hidden path is the same for every seed, so the work that depends on
    it stays nearly constant (the truncation levels ``--ell auto`` picks
    grow with the time spent in state 2), while the program still gets a
    different series for each seed.
    """
    cum_pi = np.cumsum(model["pi"])
    cum_gamma = np.cumsum(model["gamma"], axis=1)
    k = cum_pi.size
    u = np.random.default_rng(PATH_SEED).random(n)
    states = np.empty(n, dtype=np.int64)
    s = min(int(np.searchsorted(cum_pi, u[0], side="right")), k - 1)
    states[0] = s
    for t in range(1, n):
        s = min(int(np.searchsorted(cum_gamma[s], u[t], side="right")), k - 1)
        states[t] = s
    return np.random.default_rng(seed).poisson(np.asarray(model["rates"])[states])


def write_model(path: Path, model: dict) -> None:
    lines = [f"states {len(model['pi'])}", "pi " + " ".join(map(repr, model["pi"]))]
    lines += ["gamma " + " ".join(map(repr, row)) for row in model["gamma"]]
    lines.append("lambda " + " ".join(map(repr, model["rates"])))
    path.write_text("\n".join(lines) + "\n")


def prepare(definitions: dict, name: str, seed: int, work: Path) -> list[list[str]]:
    """Write the workload's input files for the seed; return its CLI calls.

    The calls keep an ``{out}`` placeholder for the client's output directory.
    """
    workload, models = definitions["workloads"][name], definitions["models"]
    files = {}
    if workload["model_file"]:
        files["model"] = work / "model.txt"
        write_model(files["model"], models[workload["model_file"]])
    if workload["series"]:
        counts = simulate_counts(models[workload["series"]["model"]], workload["series"]["n"], seed)
        files["obs"] = work / "observations.csv"
        files["obs"].write_text("count\n" + "\n".join(map(str, counts.tolist())) + "\n")
    return [[arg.format(seed=seed, out="{out}", **files) for arg in call]
            for call in workload["calls"]]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def probe_setup(env: dict, root: Path, deadline: float) -> list[float]:
    times = []
    for _ in range(PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "client.py"), "--probe"],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0), check=True,
        )
        times.append(json.loads(done.stdout)["setup_s"])
    return times


def run_client(name: str, workload: str, calls: list, seconds: float, max_iterations: int,
               trace: bool, run_id: str, env: dict, root: Path, work: Path,
               budget: float) -> dict:
    """Run one client process; return its result with the calls it logged."""
    out = work / f"out-{name}"
    spec = {
        "workload": workload,
        "calls": [[arg.replace("{out}", str(out)) for arg in call] for call in calls],
        "seconds": seconds,
        "max_iterations": max_iterations,
        "budget": budget,
        "trace": trace,
        "run_id": run_id,
        "src": str(root / "src"),
        "out": str(out),
        "calls_log": str(work / f"{name}.calls.jsonl"),
        "result": str(work / f"{name}.result.json"),
    }
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), str(spec_path)],
                            env=env, cwd=root, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=budget + 10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{name} client still running after {budget + 10:.0f} s; killed")
    if code != 0:
        raise SystemExit(f"{name} client exited with code {code}")
    result = json.loads(Path(spec["result"]).read_text())
    with open(spec["calls_log"]) as fh:
        result["calls"] = [json.loads(line) for line in fh]
    result["out"] = out
    return result


def pass_times(calls: list[dict]) -> list[float]:
    """Wall time of each pass whose calls all exited 0, in the order they ran."""
    passes: dict[int, list[dict]] = {}
    for call in calls:
        passes.setdefault(call["iteration"], []).append(call)
    return [sum(c["seconds"] for c in p) for p in passes.values()
            if all(c["code"] == 0 for c in p)]


def output_checks(workload: str, passes: list[dict], reference: dict | None) -> list[dict]:
    """Checks of one client's outputs: the last pass in full, the others by equality.

    The last pass gets the invariant checks and, when there is a reference,
    the comparison with it; each earlier pass must have produced the same
    record as the last.
    """
    last = passes[-1]
    found = list(last["checks"])
    if reference is not None:
        found += checks.compare(workload, last["record"], reference)
    want = json.dumps(last["record"], sort_keys=True)
    for p in passes[:-1]:
        found.append({"name": f"pass {p['iteration']} outputs equal the last pass's",
                      "ok": json.dumps(p["record"], sort_keys=True) == want, "detail": ""})
    return found


def load_reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference.jsonl"
    if not path.exists():
        return None
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["workload"] == workload and entry["seed"] == seed:
                return entry["record"]
    return None


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_metrics(spans: list) -> dict:
    """Every per-layer value the tracer can give, by metric name; 0 where a layer did not run."""
    totals = layer_totals(spans)
    values = {}
    for layer in LAYERS:
        t = totals.get(layer, {})
        stats = ["calls", "total_s", "self_s", "rss_rise_mb"]
        if layer in COUNTERS:
            stats.append(COUNTERS[layer][0])
        for stat in stats:
            values[f"{layer}.{stat}"] = t.get(stat, 0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "hmmposterior" / "cli.py").is_file():
        print(f"error: no src/hmmposterior under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    definitions = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in definitions["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = definitions["workloads"][args.workload]

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = prepare(definitions, args.workload, args.seed, work)
    env = child_env(root)

    setup_times = [] if args.trace else probe_setup(env, root, deadline)
    clients = [("untraced", False, 1000)] + ([("traced", True, 1)] if args.trace else [])
    clients_deadline = deadline - (0.0 if args.trace else PROBE_RESERVE_S)
    results = {}
    for i, (name, trace, max_iterations) in enumerate(clients):
        budget = (clients_deadline - time.monotonic()) / (len(clients) - i)
        results[name] = run_client(name, args.workload, calls, args.seconds, max_iterations,
                                   trace, run_id, env, root, work, budget)
    if not args.trace:
        setup_times += probe_setup(env, root, deadline)

    reference = load_reference(args.workload, args.seed)
    all_checks, records = [], {}
    for name, result in results.items():
        found = output_checks(args.workload, result["passes"], reference)
        all_checks += [dict(c, client=name) for c in found]
        records[name] = result["passes"][-1]["record"]
        shutil.rmtree(result["out"], ignore_errors=True)

    untraced = results["untraced"]
    calls_made = [c for r in results.values() for c in r["calls"]]
    attempted = len(calls_made)
    failed = sum(c["code"] != 0 for c in calls_made)
    walls = pass_times(untraced["calls"])
    passed = sum(c["ok"] for c in all_checks)
    outputs_ok = passed / len(all_checks)
    if not walls:
        print(f"error: no pass of {args.workload} succeeded", file=sys.stderr)
        for c in calls_made:
            print(f"  {c['command']}: code {c['code']} {c['error'] or ''} {c['stderr']}",
                  file=sys.stderr)
        return 1
    wall_p75 = walls[0]
    if len(walls) > 1:
        wall_p75 = statistics.quantiles(walls, n=4, method="inclusive")[2]

    shares = {}
    if args.trace:
        spans = results["traced"]["spans"]
        values = layer_metrics(spans)
        values["trace.overhead_s"] = traced_wall(spans) - walls[0]
        shares = {layer: t["self_s"] / traced_wall(spans)
                  for layer, t in sorted(layer_totals(spans).items(), key=lambda kv: -kv[1]["self_s"])}
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    else:
        setup_times.append(untraced["setup_s"])
        values = {
            "wall_p75_s": wall_p75,
            "peak_rss_mb": untraced["maxrss_kib"] / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record_json = json.dumps(records.get("untraced"), sort_keys=True)
    ell = (records.get("untraced") or {}).get("ell", {})
    overflow = {name: d["overflow"]
                for name, d in (records.get("untraced") or {}).get("distributions", {}).items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            **untraced["versions"],
            "blas_threads": THREAD_CAP["OPENBLAS_NUM_THREADS"],
            "commit": git_commit(root),
            "seed": args.seed,
        },
        "sizes": dict(workload["sizes"], ell=ell),
        "fmci_overflow": overflow,
        "wall_s_samples": walls,
        "wall_s_sample_count": len(walls),
        "wall_s_median": statistics.median(walls),
        "setup_s_samples": setup_times,
        "failed_share": failed / attempted,
        "outputs_ok": outputs_ok,
        "reference": reference is not None,
        "failed_checks": [c for c in all_checks if not c["ok"]],
        "output_digest": hashlib.sha256(record_json.encode()).hexdigest(),
        "absent_layers": results.get("traced", {}).get("absent", []),
        "self_time_shares": shares,
        "elapsed_s": time.monotonic() - started,
    }
    (work / "result.json").write_text(json.dumps(
        {"detail": detail, "records": records, "metrics": metrics, "calls": calls_made,
         "spans": results.get("traced", {}).get("spans", [])}))
    for name, result in results.items():
        for suffix in (".calls.jsonl", ".result.json"):
            (work / f"{name}{suffix}").unlink()

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": outputs_ok == 1.0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
