"""Metric declarations (mirrored by BENCHMARK.json) and the statistics the
benchmark reports."""

from __future__ import annotations

import statistics

# (name, unit, better, bound): reported with --trace 0 on every workload.
# An operation is every leg of the workload, so op_ref gates the simulate
# and M = 0 legs on bulk and the verify legs on secrecy.  op_ref is each
# operation's time in units of the reference loop timed right before and
# after it (unit "ref"): on a shared 2-CPU Xeon host, ten bulk runs of the
# same code had op_s.p50 from 0.78 to 1.33 s ((q3-q1)/median 0.25), while
# op_ref.p50 spread 0.04-0.05 on bulk and 0.08 on secrecy.  Times in
# seconds and per-leg times are per-layer metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ref.p50", "ref", "lower", 0.25),
    ("op_ref.tail", "ref", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("peak_rss_MiB", "MiB", "lower", 0.1),
]

S, COUNT, BYTES = "s", "count", "bytes"

# (name, unit, better): reported with --trace 1 on every workload; a layer
# a workload never calls reads 0.  Span metrics are medians over traced
# operations of per-operation sums.
PER_LAYER = [
    ("sharing.bytes_to_subfiles.s", S, "lower"),
    ("sharing.bytes_to_subfiles.bytes", BYTES, "lower"),
    ("sharing.subfiles_to_bytes.s", S, "lower"),
    ("sharing.subfiles_to_bytes.bytes", BYTES, "lower"),
    ("sharing.encode_shares.s", S, "lower"),
    ("sharing.encode_shares.symbols", COUNT, "lower"),
    ("sharing.reconstruct_file.s", S, "lower"),
    ("sharing.cauchy_matrix.s", S, "lower"),
    ("sharing.invert_matrix.calls", COUNT, "lower"),
    ("sharing.inverse_cache.hit_ratio", "ratio", "higher"),
    ("sharing.inverse_cache.lookups", COUNT, "lower"),
    ("sharing.random_vector.s", S, "lower"),
    ("sharing.random_vector.symbols", COUNT, "lower"),
    ("sharing.self_s", S, "lower"),
    ("field.scale.calls", COUNT, "lower"),
    ("field.scale.s", S, "lower"),
    ("field.mul.calls", COUNT, "lower"),
    ("field.mul.s", S, "lower"),
    ("field.scaled_outer.s", S, "lower"),
    ("field.tables.s", S, "lower"),
    ("field.self_s", S, "lower"),
    ("scheme.helper_placement.self_s", S, "lower"),
    ("scheme.build_g_array.s", S, "lower"),
    ("scheme.user_key_placement.self_s", S, "lower"),
    ("scheme.deliver.s", S, "lower"),
    ("scheme.decode_user.self_s", S, "lower"),
    ("scheme.one_time_pad_session.self_s", S, "lower"),
    ("scheme.deliver.xor_bytes", BYTES, "lower"),
    ("scheme.transmissions", COUNT, "lower"),
    ("scheme.decode_user.calls", COUNT, "lower"),
    ("scheme.self_s", S, "lower"),
    ("secrecy.verify_session.s", S, "lower"),
    ("secrecy.model_build.s", S, "lower"),
    ("secrecy.check.calls", COUNT, "lower"),
    ("secrecy.check.pass_s", S, "lower"),
    ("secrecy.check.fail_s", S, "lower"),
    ("secrecy.check.cells", COUNT, "lower"),
    ("secrecy.verdicts.fail", COUNT, "lower"),
    ("secrecy.self_s", S, "lower"),
    ("pda.load_pda.s", S, "lower"),
    ("pda.mn_pda.s", S, "lower"),
    ("pda.validate.calls", COUNT, "lower"),
    ("pda.self_s", S, "lower"),
    ("bounds.sweep.s", S, "lower"),
    ("bounds.self_s", S, "lower"),
    ("cli.simulate.self_s", S, "lower"),
    ("cli.verify.self_s", S, "lower"),
    ("cli.run_dir_bytes", BYTES, "lower"),
    ("cli.self_s", S, "lower"),
    # The traced set-up: process start to the first timed operation.
    ("setup.field.tables.s", S, "lower"),
    ("setup.pda.self_s", S, "lower"),
    ("setup.pda.validate.calls", COUNT, "lower"),
    # Sizes computed from the session's shapes; they repeat exactly.
    ("computed.symbols_per_share", COUNT, "lower"),
    ("computed.cache_bits", "bit", "lower"),
    ("computed.keys_per_user", COUNT, "lower"),
    ("computed.broadcast_bytes", BYTES, "lower"),
    ("computed.rate", "files", "lower"),
    ("computed.delivery_check.rows", COUNT, "lower"),
    ("computed.delivery_check.cols", COUNT, "lower"),
    # Untraced times from the same process (0 where a leg is not run): the
    # operation in seconds, throughput (N * B / op_s.p50), the reference
    # loop, and each leg.
    ("op_s.p50", S, "lower"),
    ("op_s.tail", S, "lower"),
    ("library_MiB_per_s", "MiB/s", "higher"),
    ("ref_ms.p50", "ms", "lower"),
    ("simulate_s.p50", S, "lower"),
    ("simulate_s.tail", S, "lower"),
    ("baseline_s.p50", S, "lower"),
    ("verify_s.p50", S, "lower"),
    ("sabotage_s.p50", S, "lower"),
    ("sweep_s.p50", S, "lower"),
    # Traced minus untraced simulate_s.p50, and the traced value itself.
    ("trace.overhead_s", S, "lower"),
    ("trace.simulate_s.p50", S, "lower"),
]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    label.  With fewer than 21 samples it lies at or below the median; with
    fewer than 11 there is none and the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, "n=0"
    if n >= 11:
        k = n - 10  # 1-based rank with exactly ten samples above it
        return float(ordered[k - 1]), f"p{100 * k // n} of {n}"
    return float(ordered[-1]), f"max of {n}"
