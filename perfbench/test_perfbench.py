"""Tests of the benchmark itself: the correctness gate, the self-time
arithmetic, the patching, and that tracing leaves the program's outputs
unchanged.  Workloads run here with tiny files to stay fast."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import gate, metrics, tracing
from perfbench.workloads import SPECS, Workload, computed_sizes
from seccache.secrecy import SessionAnalyzer

ROOT = Path(__file__).resolve().parents[1]
SMALL = {
    name: replace(spec, file_bytes=4 if spec.cli else 64,
                  simulate_reps=min(spec.simulate_reps, 2))
    for name, spec in SPECS.items()
}


def _outputs(op):
    return {k: v for k, v in op.outputs.items() if k != "session"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per small workload: an untraced op, a traced op of the same workload
    and its tracer, and an untraced op under a second seed."""
    out = {}
    for name, spec in SMALL.items():
        tracer = tracing.Tracer()
        w = Workload(spec, 1, tmp_path_factory.mktemp(name))
        try:
            plain = w.op()
            with tracing.installed(tracer):
                tracer.op = 0
                traced = w.op()
        finally:
            w.close()
        w2 = Workload(spec, 2, tmp_path_factory.mktemp(name))
        try:
            other = w2.op()
        finally:
            w2.close()
        out[name] = plain, traced, tracer, other
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_passes_on_two_seeds(runs, name):
    plain, traced, _, other = runs[name]
    assert plain.errors == [] and traced.errors == [] and other.errors == []
    assert _outputs(plain) != _outputs(other)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_equal_untraced(runs, name):
    plain, traced, _, _ = runs[name]
    assert _outputs(traced) == _outputs(plain)
    assert set(traced.legs) == set(plain.legs)


def test_gate_catches_corrupted_decoded_file(runs):
    plain = runs["bulk"][0]
    session = plain.outputs["session"]
    decoded = dict(plain.outputs["decoded"])
    assert gate.check_decoded(decoded, session.library, session.demands) == []
    decoded[3] = bytes([decoded[3][0] ^ 1]) + decoded[3][1:]
    errors = gate.check_decoded(decoded, session.library, session.demands)
    assert len(errors) == 1 and "user 3" in errors[0]


@pytest.mark.parametrize("leg,strip", [("verify", False), ("sabotage", True)])
def test_gate_catches_flipped_verdict_line(runs, leg, strip):
    text = runs["secrecy"][0].outputs[leg]
    assert gate.check_verify(text, 1 if strip else 0, 21, 6, strip) == []
    for old, new in (("cache-secrecy cache 2: PASS", "cache-secrecy cache 2: FAIL"),
                     ("placement-secrecy user 5: PASS", "placement-secrecy user 5: FAIL")):
        assert old in text
        assert gate.check_verify(text.replace(old, new), 1 if strip else 0, 21, 6, strip)
    flipped = text.replace("delivery-secrecy user 7: " + ("FAIL" if strip else "PASS"),
                           "delivery-secrecy user 7: " + ("PASS" if strip else "FAIL"))
    assert flipped != text
    assert gate.check_verify(flipped, 1 if strip else 0, 21, 6, strip)
    assert gate.check_verify(text, 0 if strip else 1, 21, 6, strip)


def test_gate_catches_wrong_transmission_count(runs):
    files = runs["secrecy"][0].outputs["run_dir"]
    assert gate.check_run_dir(files, 21, 20, 10) == []
    rate = json.loads(files["rate.json"])
    rate["num_transmissions"] = 19
    bad = {**files, "rate.json": json.dumps(rate).encode()}
    assert any("transmissions" in e for e in gate.check_run_dir(bad, 21, 20, 10))
    short = b"\n".join(files["transmissions.log"].splitlines()[:-1]) + b"\n"
    assert gate.check_run_dir({**files, "transmissions.log": short}, 21, 20, 10)
    assert gate.check_count("transmissions", 59, 60) == ["transmissions: got 59, expected 60"]


def test_gate_checks_sweep_rows(runs):
    text = runs["secrecy"][0].outputs["sweep"]
    assert gate.check_sweep(text, 7) == []
    lines = text.splitlines()
    assert gate.check_sweep("\n".join(lines[:-1]), 7)
    # mn:6,5 has achievable rate 6: raise its lower bound above that.
    worse = text.replace("210,6,6,6,mn:6,5", "210,6,7,6,mn:6,5")
    assert worse != text and gate.check_sweep(worse, 7)


def test_self_time_arithmetic():
    spans = [
        tracing.Span("a.root", 0.0, 10.0, None, 0, agg_s=0.5),
        tracing.Span("b.x", 1.0, 3.0, 0, 0),
        tracing.Span("b.y", 2.0, 4.0, 0, 0),  # overlaps b.x: the union counts once
        tracing.Span("c.z", 1.5, 2.0, 1, 0),
        tracing.Span("b.w", 6.0, 7.0, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 4 - 0.5, 1.5, 2.0, 0.5, 1.0])
    assert tracing.covered(0.0, 5.0, [(4.0, 9.0), (-1.0, 1.0)]) == pytest.approx(2.0)


def test_self_times_of_a_traced_tree_add_up_to_its_root():
    tracer = tracing.Tracer()
    leaf = tracer.span("m.leaf", lambda: sum(range(1000)))
    mid = tracer.span("m.mid", lambda: [leaf() for _ in range(3)])
    root = tracer.span("m.root", lambda: [mid() for _ in range(2)])
    tracer.op = 7
    root()
    assert [s.name for s in tracer.spans].count("m.leaf") == 6
    root_span = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        root_span.end - root_span.start)
    per_op = tracing.per_op_metrics(tracer)[7]
    assert per_op["m.leaf.calls"] == 6
    assert per_op["m.self_s"] == pytest.approx(per_op["m.root.s"])


def test_every_patched_attribute_is_restored():
    entries = [(o, a) for o, a, _, _ in tracing.TARGETS]
    entries += [(o, a) for o, a, _ in tracing.AGGREGATES]
    assert len(set(entries)) == len(entries)
    originals = {(o, a): vars(o)[a] for o, a in entries}
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert all(vars(o)[a] is not originals[(o, a)] for o, a in entries)
            raise RuntimeError("leave the block early")
    assert all(vars(o)[a] is originals[(o, a)] for o, a in entries)


def test_traced_counters(runs):
    per_op = tracing.per_op_metrics(runs["secrecy"][2])[0]
    checks = 21 + 21 + 6 + 1  # placement and delivery per user, caches, eavesdropper
    assert per_op["secrecy.check.calls"] == 2 * checks
    assert per_op["secrecy.verdicts.fail"] == 21
    assert per_op["scheme.transmissions"] == 2 * 20 + 2 * 20  # simulate x2, verify x2
    assert per_op["cli.simulate.calls"] == 2 and per_op["cli.verify.calls"] == 2
    bulk = tracing.per_op_metrics(runs["bulk"][2])[0]
    assert bulk["scheme.decode_user.calls"] == 2 * 18
    assert bulk["secrecy.check.calls"] == 0
    assert bulk["sharing.bytes_to_subfiles.bytes"] == 18 * 64


def test_computed_sizes_match_the_observation_model(tmp_path):
    w = Workload(SMALL["secrecy"], 1, tmp_path)
    try:
        session = w.session()
    finally:
        w.close()
    sizes = computed_sizes(session)
    model = SessionAnalyzer(session).user_model(1, include_delivery=True)
    protected = model.protected_columns(set(range(2, 22)))
    assert sizes["computed.delivery_check.rows"] == model.obs_dim
    assert sizes["computed.delivery_check.cols"] == model.rand_dim + len(protected)
    assert sizes["computed.keys_per_user"] == 2
    assert sizes["computed.rate"] == 10


def test_operation_times_in_reference_units():
    from perfbench.run import Record, timings

    records = [Record(i, {"op": [op], "simulate": [op / 2]}, [], {}, ref, op / ref[0])
               for i, (op, ref) in enumerate([(2.0, [0.5, 0.5]), (4.0, [2.0, 1.0, 2.0]),
                                              (3.0, [1.0, 1.0])])]
    times = timings(SPECS["bulk"], records)
    assert times["ref_ms.p50"][0] == 1000.0
    assert times["op_s.p50"] == (3.0, "s", "n=3") and times["op_ref.p50"] == (3.0, "ref", "n=3")
    assert times["op_ref.tail"] == (4.0, "ref", "max of 3")
    assert times["simulate_s.p50"] == (1.5, "s", "n=3")
    assert times["baseline_s.p50"] == (0.0, "s", "n=0")


def test_each_operation_is_divided_by_the_reference_around_it(monkeypatch):
    from perfbench import run
    from perfbench.workloads import Op

    class Idle:
        def op(self):
            return Op()

    samples = iter([1.0] * run.REF_MIN + [3.0] * run.REF_MIN)  # before, then after
    monkeypatch.setattr(run, "reference_s", lambda: next(samples))
    records = run.run_loop(Idle(), 0.0)
    assert len(records) == 1 and records[0].ref == [3.0] * run.REF_MIN
    assert records[0].op_ref == records[0].legs["op"][0] / 2.0


def test_tail():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    values = [float(v) for v in range(30, 0, -1)]
    assert metrics.tail(values) == (20.0, "p66 of 30")
    assert metrics.tail(values[:11]) == (20.0, "p9 of 11")


def test_benchmark_json_matches_the_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(SPECS)


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
