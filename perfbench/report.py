"""Turns windows (and, for the traced pass, spans) into named metrics."""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from typing import Dict, List

from harness import Window
from workloads import ChannelWorkload

#: Every wrapper group a workload must see fire in its traced window; a
#: group is satisfied when any one of its span names fired.
EXPECTED_SPANS = {
    "ka-ceilidh": [
        ("BatchScheduler.submit",),
        ("serve_request", "serve_request_batch"),
        ("CeilidhScheme.key_agreement", "CeilidhScheme.key_agreement_many"),
        ("kdf",),
        ("TorusCompressor.compress", "TorusCompressor.compress_many"),
        ("TorusCompressor.decompress", "TorusCompressor.decompress_many"),
        ("T6Group.exponentiate", "T6Group.exponentiate_many"),
        ("exponentiate",),
        ("fp6_mul",), ("fp6_sqr",), ("inv", "inv_many"),
    ],
    "pkc-mix": [
        ("BatchScheduler.submit",),
        ("serve_request", "serve_request_batch"),
        ("EcdhScheme.key_agreement", "EcdhScheme.key_agreement_many"),
        ("scalar_mult", "scalar_mult_many"),
        ("RsaScheme.decrypt",), ("rsa_decrypt_int_crt",),
        ("XtrScheme.key_agreement",), ("XtrContext.exponentiate",),
        ("CeilidhScheme.sign",), ("T6Group.generator_power",), ("FixedBaseTable.power",),
        ("kdf",), ("exponentiate",), ("fp6_mul",), ("inv", "inv_many"),
    ],
    "channels": [
        ("BatchScheduler.submit",),
        ("ChannelCrypto.seal",), ("ChannelCrypto.open",), ("kdf",),
        ("serve_request", "serve_request_batch"),
        ("CeilidhScheme.key_agreement", "CeilidhScheme.key_agreement_many"),
        ("TorusCompressor.compress", "TorusCompressor.compress_many"),
        ("exponentiate",), ("fp6_mul",),
    ],
}

#: Every metric this benchmark reports, with its unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "handshake_p50_ms": "ms",
}
PER_LAYER = {
    "server.cpu_ms_per_response": "ms",
    "scheduler.queue_wait_ms": "ms",
    "scheduler.batch_size_mean": "count",
    "scheduler.overloaded": "count",
    "session.execute_ms_per_request": "ms",
    "channel.record_us": "us",
    "channel.rekeys": "count",
    "channel.refusals": "count",
    "pkc.self_us_per_request": "us",
    "pkc.kdf_us_per_call": "us",
    "torus.compression_us_per_request": "us",
    "ecc.self_ms_per_request": "ms",
    "rsa.self_ms_per_request": "ms",
    "xtr.self_ms_per_request": "ms",
    "exp.self_ms_per_request": "ms",
    "exp.calls_per_request": "count",
    "field.fp6_mul_per_request": "count",
    "field.fp6_sqr_per_request": "count",
    "field.fp6_us_per_product": "us",
    "field.inversions_per_request": "count",
    "field.self_ms_per_request": "ms",
    "trace.unattributed_share": "fraction",
    "gen.lag_p99_ms": "ms",
    "gen.cpu_share": "fraction",
    "trace.overhead_ratio": "ratio",
}
UNITS = {**END_TO_END, **PER_LAYER}

#: Layers whose self time is reported per request of the phase using them.
SCHEME_LAYERS = {"repro.ecc": "ecdh-p160", "repro.rsa": "rsa-1024", "repro.xtr": "xtr-170"}

COMPRESSION = ("TorusCompressor.compress", "TorusCompressor.decompress",
               "TorusCompressor.compress_many", "TorusCompressor.decompress_many")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _kinds(workload_name: str, tally):
    """``(record kinds, handshake kinds)`` the latency figures are taken over."""
    if workload_name == "channels":
        return {"msg"}, {"open", "rekey"}
    kinds = {kind for _, _, kind in tally.samples}
    return kinds, kinds


def phase_figures(windows: List[Window], workload, calibrated: bool = True):
    """Rate and latency figures of one phase, over all of its windows.

    With ``calibrated`` every time in a slice is divided by the slice's host
    factor (``hostspeed.py``): the figures are what the benchmark's vCPU
    would have measured at its nominal speed.  A paced workload's rate is
    set by its schedule, so it is never scaled.
    """
    paced = isinstance(workload, ChannelWorkload)
    samples, elapsed = [], 0.0
    for window in windows:
        for (start, end), host in zip(window.slices, window.factors):
            scale = host if calibrated else 1.0
            inside = [s for s in window.tally.samples if start <= s[0] < end]
            samples.extend((latency / scale, kind) for _, latency, kind in inside)
            # Each slice counts up to its last verified reply: a paced workload
            # then reads its measured delivery rate, and a closed loop whose
            # inputs ran out counts only the time they lasted.
            last = max((s[0] for s in inside), default=end)
            elapsed += (last - start) / (1.0 if paced else scale)
    records, handshakes = _kinds(workload.name, windows[0].tally)
    latencies = [lat for lat, kind in samples if kind in records]
    handshake_latencies = [lat for lat, kind in samples if kind in handshakes]
    return {
        "rate": len(samples) / elapsed,
        "p50": _ms(percentile(latencies, 50)),
        "tail": _ms(percentile(latencies, workload.tail_percentile)),
        "handshake_p50": _ms(percentile(handshake_latencies, 50)),
        "samples": len(latencies),
        "handshakes": len(handshake_latencies),
        "slices": sum(len(w.slices) for w in windows),
        "host": statistics.median(host for w in windows for host in w.factors),
        "exhausted": any(w.tally.exhausted for w in windows),
    }


def by_phase(windows: List[Window]) -> Dict[str, List[Window]]:
    phases: Dict[str, List[Window]] = {}
    for window in windows:
        phases.setdefault(window.name, []).append(window)
    return phases


def end_to_end(workload, windows: List[Window], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics; pkc-mix takes the geometric mean of its phases.

    ``setups`` holds the calibrated set-up seconds of each server spawn.
    """
    per_phase = [phase_figures(ws, workload) for ws in by_phase(windows).values()]
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": geomean([f["rate"] for f in per_phase]),
        "latency_p50_ms": geomean([f["p50"] for f in per_phase]),
        "latency_tail_ms": geomean([f["tail"] for f in per_phase]),
        "handshake_p50_ms": geomean([f["handshake_p50"] for f in per_phase]),
    }


def generator_guards(windows: List[Window]) -> Dict[str, float]:
    lags = [lag for w in windows for lag in w.tally.lags]
    wall = sum(w.seconds for w in windows)
    return {
        "gen.lag_p99_ms": _ms(percentile(lags, 99)) if lags else 0.0,
        "gen.cpu_share": sum(w.gen_cpu for w in windows) / wall,
    }


def server_cpu_per_response(windows: List[Window]) -> float:
    responses = sum(w.tally.responses for w in windows)
    return _ms(sum(w.server_cpu for w in windows) / max(responses, 1))


# -- the traced pass -----------------------------------------------------------


def load_spans(path: str):
    submits, spans = [], []
    with open(path) as source:
        for line in source:
            row = json.loads(line)
            (submits if row[0] == "submit" else spans).append(row)
    return submits, spans


def per_layer(
    workload,
    untraced: List[Window],
    traced: List[Window],
    spans_path: str,
):
    """Every per-layer metric, plus what the traced pass checks.

    Returns ``(metrics, wrapper groups that never fired, self CPU seconds by
    layer, server busy CPU seconds in the traced windows)``.
    """
    submits, rows = load_spans(spans_path)
    bounds = [(w.tally.start, w.tally.end) for w in traced]

    def inside(t: float) -> bool:
        return any(start <= t <= end for start, end in bounds)

    # row: [id, name, layer, parent, t0, t1, c0, c1, rids, field]
    spans = {row[0]: row for row in rows if inside(row[4])}
    child_cpu: Dict[int, float] = defaultdict(float)
    for row in spans.values():
        if row[3] in spans:
            child_cpu[row[3]] += row[7] - row[6]
    layer_self: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, List[list]] = defaultdict(list)
    field_counts: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for row in spans.values():
        field_cpu = 0.0
        for key, (count, cpu) in (row[9] or {}).items():
            field_counts[key][0] += count
            field_counts[key][1] += cpu
            field_cpu += cpu
        layer_self[row[2]] += (row[7] - row[6]) - child_cpu[row[0]] - field_cpu
        by_name[row[1]].append(row)
    layer_self["repro.field"] = sum(cpu for _, cpu in field_counts.values())

    def parent_layer(row) -> str:
        parent = spans.get(row[3])
        return parent[2] if parent else ""

    def parent_name(row) -> str:
        parent = spans.get(row[3])
        return parent[1] if parent else ""

    responses = sum(w.tally.responses for w in traced)
    per_request = 1.0 / max(responses, 1)
    session_rows = [
        row for name in ("serve_request", "serve_request_batch") for row in by_name[name]
        if parent_layer(row) != "repro.serve.session"
    ]
    served = sum(len(row[8]) for row in session_rows)
    started: Dict[int, float] = {}
    for row in session_rows:
        for rid in row[8]:
            if rid is not None:
                started[rid] = min(started.get(rid, row[4]), row[4])
    # submit row: ["submit", request id, scheme, kind, submitted, done, outcome]
    waits = [started[row[1]] - row[4] for row in submits if row[1] in started and inside(row[4])]
    kdf_rows = by_name["kdf"]
    channel_rows = by_name["ChannelCrypto.seal"] + by_name["ChannelCrypto.open"]
    records = sum(w.tally.kinds.get("msg", 0) for w in traced)
    compression_rows = [
        row for name in COMPRESSION for row in by_name[name] if parent_name(row) not in COMPRESSION
    ]
    exp_calls = sum(
        1 for name, named in by_name.items() for row in named
        if row[2] == "repro.exp" and parent_layer(row) != "repro.exp"
    )
    products = field_counts["fp6_mul"][0] + field_counts["fp6_sqr"][0]
    server_cpu = sum(w.server_cpu for w in traced)
    attributed = sum(layer_self.values())

    metrics = {
        "server.cpu_ms_per_response": server_cpu_per_response(untraced),
        "scheduler.queue_wait_ms": _ms(statistics.median(waits)) if waits else 0.0,
        "scheduler.batch_size_mean": served / len(session_rows) if session_rows else 0.0,
        "scheduler.overloaded": sum(w.stat_delta("rejected") for w in untraced + traced),
        "session.execute_ms_per_request": _ms(
            sum(row[7] - row[6] for row in session_rows) / max(served, 1)
        ),
        "channel.record_us": sum(row[7] - row[6] for row in channel_rows) / max(records, 1) * 1e6,
        "channel.rekeys": sum(w.stat_delta("channels", "rekeys") for w in traced),
        "channel.refusals": sum(
            w.stat_delta("channels", key)
            for w in untraced + traced
            for key in ("rejected_quota", "rekey_required", "evicted_hostile")
        ),
        "pkc.self_us_per_request": layer_self["repro.pkc"] * per_request * 1e6,
        "pkc.kdf_us_per_call": (
            sum(row[7] - row[6] for row in kdf_rows) / len(kdf_rows) * 1e6 if kdf_rows else 0.0
        ),
        "torus.compression_us_per_request": (
            sum(row[7] - row[6] for row in compression_rows) * per_request * 1e6
        ),
    }
    for layer, scheme in SCHEME_LAYERS.items():
        phase_responses = sum(w.tally.responses for w in traced if w.name.startswith(scheme))
        metrics[f"{layer.split('.')[1]}.self_ms_per_request"] = (
            _ms(layer_self[layer] / phase_responses) if phase_responses else 0.0
        )
    metrics.update({
        "exp.self_ms_per_request": _ms(layer_self["repro.exp"] * per_request),
        "exp.calls_per_request": exp_calls * per_request,
        "field.fp6_mul_per_request": field_counts["fp6_mul"][0] * per_request,
        "field.fp6_sqr_per_request": field_counts["fp6_sqr"][0] * per_request,
        "field.fp6_us_per_product": (
            (field_counts["fp6_mul"][1] + field_counts["fp6_sqr"][1]) / products * 1e6
            if products else 0.0
        ),
        "field.inversions_per_request": (
            (field_counts["inv"][0] + field_counts["inv_many"][0]) * per_request
        ),
        "field.self_ms_per_request": _ms(layer_self["repro.field"] * per_request),
        "trace.unattributed_share": (server_cpu - attributed) / server_cpu if server_cpu else 0.0,
    })
    metrics.update(generator_guards(untraced))
    metrics["trace.overhead_ratio"] = overhead_ratio(workload, untraced, traced)

    fired = set(by_name) | {key for key, (count, _) in field_counts.items() if count}
    if any(inside(row[4]) for row in submits):
        fired.add("BatchScheduler.submit")
    missing = [
        "/".join(group) for group in EXPECTED_SPANS[workload.name]
        if not fired.intersection(group)
    ]
    layers = {layer: cpu for layer, cpu in sorted(layer_self.items())}
    return metrics, missing, layers, server_cpu


def overhead_ratio(workload, untraced: List[Window], traced: List[Window]) -> float:
    """How much tracing slowed the server: >1 means slower.

    Closed loops compare throughput; the paced channel workload's throughput
    is fixed by its schedule, so it compares record latency p50.
    """
    plain = end_to_end(workload, untraced, [0.0])
    with_spans = end_to_end(workload, traced, [0.0])
    if workload.name == "channels":
        return with_spans["latency_p50_ms"] / plain["latency_p50_ms"]
    return plain["throughput_rps"] / with_spans["throughput_rps"]
