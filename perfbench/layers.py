"""Where the traced run rebinds functions, and how spans become per-layer metrics.

Each point rebinds a public function in the module that calls it. Every
per-layer metric is emitted on every workload; a layer a workload does not
use reads 0, which is how the traced counts show that train does no
history work, attack no backward pass and defend no PSO.
"""

from __future__ import annotations

from chrono_shield import attack, cnn, codecs, defense, harness, history

from machine import forward_flops, train_flops_per_sample
from workloads import MODEL


def _images(args, kwargs):  # predict_batch(weights, images)
    return len(args[1])


def _bytes(args, kwargs):  # decode_image(data, fmt)
    return len(args[0])


# (owner, attribute, span name, counters taken from the call's arguments)
POINTS = [
    (cnn, "train", "cnn.train", None),
    (cnn, "evaluate", "cnn.evaluate", None),
    (cnn, "predict_batch", "cnn.predict_batch", {"images": _images}),
    (defense, "predict_batch", "cnn.predict_batch", {"images": _images}),
    (cnn, "resize_bilinear", "raster.resize_bilinear", None),
    (harness, "generate_mask", "masks.generate_mask", None),
    (harness, "run_attack", "attack.run_attack", None),
    (attack, "apply_shadow", "attack.apply_shadow", None),
    (codecs, "decode_image", "codecs.decode_image", {"bytes": _bytes}),
    (codecs, "encode_image", "codecs.encode_image", None),
    (history, "load_manifest", "history.load_manifest", None),
    (history, "query_archive", "history.query_archive", None),
    (history.RemoteHistoryClient, "query", "history.remote_query", None),
    (defense, "defend", "defense.defend", None),
    (defense, "majority_vote", "defense.majority_vote", None),
    (harness, "run_attack_sweep", "harness.run_attack_sweep", None),
    (harness, "emit_report", "harness.emit_report", None),
]

# Every per-layer metric with its unit, in BENCHMARK.json order.
UNITS = {
    "synth.dataset_s": "s",
    "synth.archive_s": "s",
    "cnn.train_s": "s",
    "cnn.train_gflops": "GFLOP/s",
    "cnn.evaluate_s": "s",
    "cnn.predict_batch.calls": "count",
    "cnn.predict_batch.images": "count",
    "cnn.predict_batch.s": "s",
    "cnn.predict_batch.gflops": "GFLOP/s",
    "masks.generate_mask.calls": "count",
    "masks.generate_mask.s": "s",
    "masks.fallback_ratio": "ratio",
    "attack.run_attack.s": "s",
    "attack.run_attack.self_s": "s",
    "attack.apply_shadow.calls": "count",
    "attack.apply_shadow.s": "s",
    "attack.candidates": "count",
    "attack.candidates_per_s": "1/s",
    "attack.pso_iterations": "count",
    "attack.queries_per_flip": "count",
    "raster.resize_bilinear.calls": "count",
    "raster.resize_bilinear.s": "s",
    "codecs.decode_image.calls": "count",
    "codecs.decode_image.s": "s",
    "codecs.decode_image.bytes": "bytes",
    "codecs.encode_image.calls": "count",
    "codecs.encode_image.s": "s",
    "history.load_manifest.calls": "count",
    "history.load_manifest.s": "s",
    "history.query_archive.s": "s",
    "history.remote_query.s": "s",
    "history.network_requests": "count",
    "history.cache_hit_ratio": "ratio",
    "history.fetch_failures": "count",
    "history.stale_cache_answers": "count",
    "fixture_server.history_requests": "count",
    "fixture_server.image_requests": "count",
    "defense.defend.s": "s",
    "defense.majority_vote.s": "s",
    "harness.run_attack_sweep.s": "s",
    "harness.emit_report.s": "s",
    "train.samples_per_s": "1/s",
    "train.test_accuracy": "ratio",
    "attack.images_per_s": "1/s",
    "attack.flip_rate": "ratio",
    "defend.local_p50_ms": "ms",
    "defend.local_p96_ms": "ms",
    "defend.cold_p50_ms": "ms",
    "defend.cold_p96_ms": "ms",
    "defend.warm_p50_ms": "ms",
    "defend.warm_p96_ms": "ms",
    "ops_failed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.phase_s": "s",
    "host.gemm_gflops": "GFLOP/s",
}

# Metrics that are a span's calls or seconds, by span name.
_CALLS = ("cnn.predict_batch", "masks.generate_mask", "attack.apply_shadow", "raster.resize_bilinear",
          "codecs.decode_image", "codecs.encode_image", "history.load_manifest")
_SECONDS = {
    "cnn.train_s": "cnn.train",
    "cnn.evaluate_s": "cnn.evaluate",
    "attack.run_attack.s": "attack.run_attack",
    "history.query_archive.s": "history.query_archive",
    "history.remote_query.s": "history.remote_query",
    "defense.defend.s": "defense.defend",
    "defense.majority_vote.s": "defense.majority_vote",
    "harness.run_attack_sweep.s": "harness.run_attack_sweep",
    "harness.emit_report.s": "harness.emit_report",
    **{f"{name}.s": name for name in _CALLS},
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(totals, sizes, counters, figures, run) -> dict[str, float]:
    """Every per-layer metric's value.

    totals and sizes come from the traced phase's Tracer, counters from
    that phase's workload, figures from the untraced phase, and run holds
    the run-wide values (setup layers, failures, overhead, calibration).
    """
    out = dict.fromkeys(UNITS, 0.0)
    for name in _CALLS:
        out[f"{name}.calls"] = totals[name].calls
    for metric, name in _SECONDS.items():
        out[metric] = totals[name].seconds
    out["attack.run_attack.self_s"] = totals["attack.run_attack"].self_seconds
    images = sizes.get("cnn.predict_batch.images", 0)
    out["cnn.predict_batch.images"] = images
    out["cnn.predict_batch.gflops"] = _ratio(images * forward_flops(MODEL), out["cnn.predict_batch.s"]) / 1e9
    out["cnn.train_gflops"] = (
        _ratio(counters.get("train_samples", 0) * train_flops_per_sample(MODEL), out["cnn.train_s"]) / 1e9
    )
    out["codecs.decode_image.bytes"] = sizes.get("codecs.decode_image.bytes", 0)
    out["masks.fallback_ratio"] = _ratio(totals["masks.generate_mask"].raised, totals["masks.generate_mask"].calls)
    out["attack.candidates"] = counters.get("attack.candidates", 0)
    out["attack.candidates_per_s"] = _ratio(out["attack.candidates"], run["trace.phase_s"])
    out["attack.pso_iterations"] = counters.get("attack.pso_iterations", 0)
    out["attack.queries_per_flip"] = _ratio(images, counters.get("attack.flips", 0))
    for name in ("history.network_requests", "history.fetch_failures",
                 "fixture_server.history_requests", "fixture_server.image_requests"):
        out[name] = counters.get(name, 0)
    out["history.cache_hit_ratio"] = _ratio(counters.get("history.cache_hits", 0), counters.get("history.remote_queries", 0))
    for name, (value, _, _) in figures.items():
        out[name] = value
    out.update(run)
    return out
