#!/usr/bin/env python3
"""Run one workload of the seccache benchmark from the root of a checkout.

    python3 perfbench/run.py --workload {bulk,secrecy} --seed N \
        --seconds S --trace {0,1}

--trace 0: set-up (imports, field, PDA, library, one warm-up operation),
    then a closed loop of operations for S seconds with no tracing.
    Reports the end-to-end metrics.  `setup_s` is the median over this
    process and two more processes that only set up.  Operation times are
    gated in reference units (`op_ref.*`): each operation's seconds divided
    by the median time of a fixed pure-Python loop timed right before and
    right after it, because the speed of a shared host drifts by more than
    any bound from one run to the next.  The times in seconds are printed
    beside them.
--trace 1: traced set-up, S/2 seconds untraced, then S/2 seconds with span
    wrappers installed around the package's functions.  Reports the
    per-layer metrics and the tracing overhead.

Prints a table (every metric with its unit and sample count), the
environment, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Results, and the spans of a traced
run, are written under `.perfbench_out/`.  Exits 2 without a result when
the package source is not in the checkout.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 60
# After each operation the reference loop is timed for this share of the
# operation's time, and at least REF_MIN times.
REF_SHARE = 0.03
REF_MIN = 5


@dataclass
class Record:
    op: int
    legs: dict  # leg -> samples in seconds, plus "op" for the whole operation
    errors: list
    counts: dict
    ref: list  # reference_s() samples timed right after the operation
    op_ref: float  # the operation's time over the median reference around it


@dataclass
class Result:
    values: dict  # every declared metric of the mode
    notes: dict  # metric -> sample count or how it was obtained
    records: list
    errors: list  # failures outside the timed operations
    extra: dict  # undeclared metrics printed in the table: name -> (value, unit, note)
    spans: list | None = None


def run_loop(w, seconds: float, tracer=None) -> list[Record]:
    """Closed loop, one client: run operations until `seconds` have passed."""
    from seccache import sharing
    from perfbench import metrics
    from perfbench.workloads import Op

    records: list[Record] = []
    ref = reference_batch(0.0)
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = len(records)
        before = sharing._cached_inverse.cache_info()
        start = time.perf_counter()
        try:
            op = w.op()
        except Exception:
            op = Op(errors=[traceback.format_exc(limit=4)])
        took = time.perf_counter() - start
        after = sharing._cached_inverse.cache_info()
        op.counts["cache_hits"] = after.hits - before.hits
        op.counts["cache_lookups"] = after.hits + after.misses - before.hits - before.misses
        around, ref = ref, reference_batch(took)
        around = metrics.median(around + ref)
        records.append(Record(len(records), {**op.legs, "op": [took]}, op.errors, op.counts,
                              ref, took / around))
    return records


def reference_batch(took: float) -> list[float]:
    ref = [reference_s()]
    while len(ref) < REF_MIN or sum(ref) < REF_SHARE * took:
        ref.append(reference_s())
    return ref


def reference_s() -> float:
    """One timing of a fixed pure-Python loop that never calls the program:
    how fast the shared machine runs Python at that moment."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


def leg(records: list[Record], name: str) -> list[float]:
    return [t for r in records for t in r.legs.get(name, ())]


def timings(spec, records: list[Record]) -> dict[str, tuple[float, str, str]]:
    """Untraced times of a loop as (value, unit, note): the operation in
    reference units and in seconds, throughput, the reference loop itself,
    the median of every leg and the tail of the simulate leg."""
    from perfbench import metrics

    def tail(samples, unit):
        value, label = metrics.tail(samples)
        return value, unit, label

    n = len(records)
    ops = leg(records, "op")
    op_ref = [r.op_ref for r in records]
    ref = [t for r in records for t in r.ref]
    p50 = metrics.median(ops)
    out = {
        "op_ref.p50": (metrics.median(op_ref), "ref", f"n={n}"),
        "op_ref.tail": tail(op_ref, "ref"),
        "op_s.p50": (p50, "s", f"n={n}"),
        "op_s.tail": tail(ops, "s"),
        "library_MiB_per_s": (spec.files * spec.file_bytes / 2**20 / p50, "MiB/s", f"n={n}"),
        "ref_ms.p50": (1000 * metrics.median(ref), "ms", f"n={len(ref)}"),
    }
    for name in ("simulate", "baseline", "verify", "sabotage", "sweep"):
        samples = leg(records, name)
        out[f"{name}_s.p50"] = (metrics.median(samples), "s", f"n={len(samples)}")
        if name == "simulate":
            out["simulate_s.tail"] = tail(samples, "s")
    return out


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def child_setup(args) -> tuple[float | None, list[str]]:
    """Set-up time of a fresh process that sets up and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        return None, [f"set-up process failed: {exc!r}"]
    return doc["setup_s"], doc["errors"]


def setup_only(spec, seed: int) -> int:
    from perfbench.workloads import Workload

    w = Workload(spec, seed, TMP)
    try:
        errors = w.op().errors
        took = time.perf_counter() - T0
    finally:
        w.close()
    print(json.dumps({"setup_s": took, "errors": errors}))
    return 0


def untraced(spec, args) -> Result:
    from perfbench import metrics
    from perfbench.workloads import Workload

    w = Workload(spec, args.seed, TMP)
    try:
        errors = [f"warm-up: {e}" for e in w.op().errors]
        setups = [time.perf_counter() - T0]
        records = run_loop(w, args.seconds)
    finally:
        w.close()
    for _ in range(SETUP_CHILDREN):
        took, child_errors = child_setup(args)
        errors += [f"set-up process: {e}" for e in child_errors]
        if took is not None:
            setups.append(took)

    times = timings(spec, records)
    n = len(records)
    failed = sum(bool(r.errors) for r in records)
    values = {
        "setup_s": metrics.median(setups),
        "success_rate": 1 - failed / n,
        "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"n={len(setups)}", "success_rate": f"n={n}", "peak_rss_MiB": "n=1"}
    for name in ("op_ref.p50", "op_ref.tail"):
        values[name], _, notes[name] = times.pop(name)
    extra = {"error_rate": (failed / n, "ratio", f"n={n}")}
    extra.update((name, t) for name, t in times.items() if t[2] != "n=0")
    return Result(values, notes, records, errors, extra)


def traced(spec, args) -> Result:
    from perfbench import metrics, tracing
    from perfbench.workloads import Workload, computed_sizes

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.op = "setup"
        w = Workload(spec, args.seed, TMP)
        warm = w.op()
    errors = [f"warm-up: {e}" for e in warm.errors]
    try:
        sizes = computed_sizes(warm.outputs.get("session") or w.session())
        plain = run_loop(w, args.seconds / 2)
        with tracing.installed(tracer):
            records = run_loop(w, args.seconds / 2, tracer)
    finally:
        w.close()

    per_op = tracing.per_op_metrics(tracer)
    for r in records:
        for name, value in r.counts.items():
            per_op[r.op][name] += value
    setup = per_op["setup"]
    lookups = sum(r.counts["cache_lookups"] for r in records)
    hits = sum(r.counts["cache_hits"] for r in records)
    plain_sim = metrics.median(leg(plain, "simulate"))
    traced_sim = metrics.median(leg(records, "simulate"))
    special = {
        "setup.field.tables.s": setup["field.tables.s"],
        "setup.pda.self_s": setup["pda.self_s"],
        "setup.pda.validate.calls": setup["pda.validate.calls"],
        "sharing.inverse_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "sharing.inverse_cache.lookups": metrics.median([r.counts["cache_lookups"] for r in records]),
        "trace.overhead_s": traced_sim - plain_sim,
        "trace.simulate_s.p50": traced_sim,
        **sizes,
    }
    values, notes = {}, {}
    for name, (value, _, note) in timings(spec, plain).items():
        special[name] = value
        notes[name] = f"{note} untraced"
    for name, _, _ in metrics.PER_LAYER:
        if name in special:
            values[name] = float(special[name])
            notes.setdefault(name, "computed" if name.startswith("computed.") else (
                "traced set-up" if name.startswith("setup.") else ""))
        else:
            values[name] = metrics.median([per_op[r.op].get(name, 0.0) for r in records])
            notes[name] = f"n={len(records)}"
    notes["sharing.inverse_cache.lookups"] = f"n={len(records)}"
    notes["sharing.inverse_cache.hit_ratio"] = f"{hits} hits of {lookups} lookups"
    notes["trace.overhead_s"] = (
        f"{100 * (traced_sim / plain_sim - 1):+.1f}% of untraced simulate_s.p50"
        if plain_sim else "")
    spans = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
    return Result(values, notes, plain + records, errors, {}, spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "seccache" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(SRC), str(ROOT)]
    import seccache

    if Path(seccache.__file__).resolve().parent != (SRC / "seccache").resolve():
        print(f"error: seccache imported from {seccache.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import metrics
    from perfbench.workloads import SPECS

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(SPECS)}",
              file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    TMP.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(spec, args.seed)

    if args.trace:
        res = traced(spec, args)
        declared = {name: unit for name, unit, _ in metrics.PER_LAYER}
    else:
        res = untraced(spec, args)
        declared = {name: unit for name, unit, _, _ in metrics.END_TO_END}

    records = res.records
    failed = sum(bool(r.errors) for r in records)
    env = environment()
    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  operations {len(records)}  failed {failed}")
    for name, unit in declared.items():
        print(f"  {name:40s} {res.values[name]:>14.6g} {unit:8s} {res.notes.get(name, '')}")
    for name, (value, unit, note) in res.extra.items():
        print(f"  {name:40s} {value:>14.6g} {unit:8s} {note}")
    for r in records:
        for e in r.errors:
            print(f"  op {r.op} FAILED: {e}")
    for e in res.errors:
        print(f"  FAILED: {e}")
    print("env: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0 and not res.errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": res.values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "env": env, "notes": res.notes,
         "legs": [r.legs for r in records], "ref": [r.ref for r in records]}, indent=1) + "\n")
    if res.spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(res.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
