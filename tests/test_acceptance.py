"""End-to-end acceptance checks, one per stated requirement.

Every test prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL — <measured detail>

so a log scan (pytest -s) shows each verdict with the number that was
measured, not just a bare assert. The heavyweight full-protocol run is
shared by the first several criteria through a module-scoped fixture.

Run order matters only for readability; every test stands alone.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import chrono_shield
from chrono_shield.attack import AttackConfig, PsoConfig, ShadowSpec, apply_shadow, pso_minimize
from chrono_shield.cli import main as cli_main
from chrono_shield.cnn import TrainConfig, grad_check, load_weights
from chrono_shield.defense import majority_vote
from chrono_shield.fixture_server import HistoryFixtureServer
from chrono_shield.harness import run_attack_sweep, run_full_sweep
from chrono_shield.history import HistoryQuery, RemoteHistoryClient
from chrono_shield.masks import BinaryMask, NoContourFound, generate_mask
from chrono_shield.raster import RasterImage
from chrono_shield.synth import (
    PROBE_SHAPES,
    SynthConfig,
    make_history_archive,
    render_shape_probe,
    synth_dataset,
)

from _oracles import haversine_law_of_cosines, mk_pred, polygon_membership
from conftest import flat_image


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# Shared full-protocol run (criteria 1-5)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.monotonic()
    report = run_full_sweep(out)
    wall = time.monotonic() - t0
    with open(out / "weights.csw", "rb") as fh:
        weights = load_weights(fh.read())
    dataset = synth_dataset(SynthConfig(seed=0))  # identical re-render
    return SimpleNamespace(report=report, wall=wall, out=out, weights=weights, dataset=dataset)


def test_acceptance_1_defense_protocol(full_run):
    report = full_run.report
    attacked = len(report.attack_rows)
    rate = report.defense_success_rate()
    # The strong sub-claim: whenever the 3 archived voters are all
    # correct, the 3-vs-1 vote must recover the true label. Exactly.
    eligible = [
        r
        for r in report.defense_rows
        if r.attack_success and all(v.label == r.true_label for v in r.voters[1:])
    ]
    recovered = sum(r.defense_ok for r in eligible)
    ok = (
        attacked >= 50
        and rate is not None
        and rate >= 0.95
        and len(eligible) > 0
        and recovered == len(eligible)
        and full_run.wall <= 600.0
    )
    verdict(
        1,
        ok,
        f"defense {rate * 100:.1f}% over {attacked} attacked images; "
        f"all-voters-correct recovered {recovered}/{len(eligible)}; "
        f"wall {full_run.wall:.0f}s <= 600s",
    )


def test_acceptance_2_attack_rate_across_seeds(full_run):
    rates = [full_run.report.attack_success_rate()]
    for seed in (1, 2):
        extra = run_attack_sweep(full_run.weights, full_run.dataset, AttackConfig(seed=seed))
        rates.append(extra.attack_success_rate())
    passing = sum(r is not None and r >= 0.60 for r in rates)
    verdict(
        2,
        passing >= 2,
        "flip rate by seed: " + ", ".join(f"{r * 100:.1f}%" for r in rates) + f"; {passing}/3 >= 60%",
    )


def test_acceptance_3_history_beats_adversarial_training(full_run):
    defense = full_run.report.defense_success_rate()
    baseline = full_run.report.baseline_defense_rate()
    ok = baseline is not None and defense is not None and 0.0 < baseline < defense
    verdict(
        3,
        ok,
        f"baseline {baseline * 100:.1f}% strictly between 0% and defense {defense * 100:.1f}%",
    )


def test_acceptance_4_classifier_quality(full_run):
    meta = full_run.report.meta
    acc = meta["clean_test_accuracy"]
    ok = acc >= 0.95 and meta["train_seconds"] <= 300.0 and TrainConfig().epochs == 30
    verdict(
        4,
        ok,
        f"clean accuracy {acc * 100:.2f}% in {meta['train_seconds']:.0f}s "
        f"({TrainConfig().epochs} epochs)",
    )


def test_acceptance_5_gradient_fidelity(full_run):
    sample = full_run.dataset.split("test")[0]
    err = grad_check(full_run.weights, sample, epsilon=1e-4, max_params=500, seed=0)
    verdict(5, err <= 1e-3, f"max relative gradient error {err:.2e} <= 1e-3 over >=500 params")


# ---------------------------------------------------------------------------
# Criterion 6: swarm optimizer vs exhaustive grid


def _snap64(u: np.ndarray) -> np.ndarray:
    """Snap unit coordinates to the centers of a 64x64 cell grid."""
    return (np.minimum(np.floor(u * 64), 63) + 0.5) / 64.0


LANDSCAPES = [
    ("sphere", lambda x, y: (x - 0.3) ** 2 + (y + 0.6) ** 2, (-1, 1, -1, 1)),
    ("rosenbrock", lambda x, y: (1 - x) ** 2 + 100 * (y - x**2) ** 2, (-2, 2, -1, 3)),
    (
        "rastrigin",
        lambda x, y: 20
        + x**2
        - 10 * np.cos(2 * np.pi * x)
        + y**2
        - 10 * np.cos(2 * np.pi * y),
        (-5.12, 5.12, -5.12, 5.12),
    ),
    ("himmelblau", lambda x, y: (x**2 + y - 11) ** 2 + (x + y**2 - 7) ** 2, (-5, 5, -5, 5)),
]


def test_acceptance_6_optimizer_vs_grid():
    wins = 0
    for s in range(20):
        name, f, (x0, x1, y0, y1) = LANDSCAPES[s % len(LANDSCAPES)]

        def to_domain(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            c = _snap64(u)
            return x0 + c[..., 0] * (x1 - x0), y0 + c[..., 1] * (y1 - y0)

        def objective(u: np.ndarray) -> float:
            x, y = to_domain(u)
            return float(f(x, y))

        # Independent route: exhaustive evaluation of every grid cell.
        centers = (np.arange(64) + 0.5) / 64.0
        gx, gy = np.meshgrid(x0 + centers * (x1 - x0), y0 + centers * (y1 - y0))
        grid = f(gx, gy)
        gmin, gmax = float(grid.min()), float(grid.max())

        _, fit, _ = pso_minimize(objective, 2, PsoConfig(seed=100 + s))
        if fit <= gmin + 0.05 * (gmax - gmin):
            wins += 1
    verdict(6, wins >= 18, f"within 5% of the 64x64 grid optimum in {wins}/20 runs (need 18)")


# ---------------------------------------------------------------------------
# Criterion 7: mask fidelity on randomized probes


def test_acceptance_7_mask_fidelity():
    ious = []
    for i in range(200):
        shape = PROBE_SHAPES[i % len(PROBE_SHAPES)]
        rng = np.random.default_rng(1000 + i)
        img, truth = render_shape_probe(shape, rng)
        got = generate_mask(img).bits
        inter = (got & truth).sum()
        union = (got | truth).sum()
        ious.append(inter / union)
    ious = np.array(ious)
    with pytest.raises(NoContourFound):
        generate_mask(flat_image(128, 64, 64))
    ok = bool((ious >= 0.85).all())
    verdict(
        7,
        ok,
        f"IoU over 200 probes: min {ious.min():.3f} mean {ious.mean():.3f} (floor 0.85); "
        "blank image raises",
    )


# ---------------------------------------------------------------------------
# Criterion 8: vote properties at scale


labels_st = st.integers(min_value=0, max_value=15)
confs_st = st.floats(min_value=0.07, max_value=1.0, allow_nan=False)
pred_st = st.tuples(labels_st, confs_st)


def test_acceptance_8_vote_properties():
    @given(pred_st, st.lists(pred_st, min_size=1, max_size=8), st.randoms())
    @settings(max_examples=1000, deadline=None)
    def permutation_invariant(cur, hist, pyrng):
        history = [mk_pred(l, c) for l, c in hist]
        a = majority_vote(mk_pred(*cur), history)
        shuffled = history[:]
        pyrng.shuffle(shuffled)
        b = majority_vote(mk_pred(*cur), shuffled)
        assert (a.voted_label, a.suspected_attack) == (b.voted_label, b.suspected_attack)
        assert a.voted_confidence == pytest.approx(b.voted_confidence)

    @given(pred_st, st.lists(pred_st, min_size=1, max_size=8), confs_st)
    @settings(max_examples=1000, deadline=None)
    def winner_duplication_monotone(cur, hist, extra):
        history = [mk_pred(l, c) for l, c in hist]
        before = majority_vote(mk_pred(*cur), history)
        after = majority_vote(mk_pred(*cur), history + [mk_pred(before.voted_label, extra)])
        assert after.voted_label == before.voted_label

    @given(labels_st, labels_st, confs_st, st.lists(confs_st, min_size=3, max_size=3))
    @settings(max_examples=1000, deadline=None)
    def corrupted_voter_immune(true_label, adv_label, adv_conf, hist_confs):
        v = majority_vote(mk_pred(adv_label, adv_conf), [mk_pred(true_label, c) for c in hist_confs])
        assert v.voted_label == true_label

    try:
        permutation_invariant()
        winner_duplication_monotone()
        corrupted_voter_immune()
    except BaseException:
        print("ACCEPTANCE 8: FAIL — a vote property was falsified (see traceback)")
        raise
    verdict(8, True, "permutation/duplication/immunity properties x1000 cases each")


# ---------------------------------------------------------------------------
# Criterion 9: shadow locality


def test_acceptance_9_shadow_locality():
    rng = np.random.default_rng(99)
    checked = 0
    violations = 0
    while checked < 1000:
        w, h = int(rng.integers(4, 17)), int(rng.integers(4, 17))
        img_bits = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        img = RasterImage(img_bits)
        mask_bits = rng.random((h, w)) > float(rng.uniform(0.2, 0.8))
        k = int(rng.integers(3, 7))
        spec = ShadowSpec(vertices=rng.random((k, 2)), darkening=float(rng.uniform(0.1, 0.99)))
        out = apply_shadow(img, BinaryMask(mask_bits), spec)
        checked += 1
        diff = (out.pixels != img.pixels).any(axis=2)
        if not mask_bits.any():
            if diff.any():
                violations += 1
            continue
        ys, xs = np.nonzero(mask_bits)
        verts = np.empty_like(spec.vertices)
        verts[:, 0] = xs.min() + spec.vertices[:, 0] * (xs.max() - xs.min() + 1)
        verts[:, 1] = ys.min() + spec.vertices[:, 1] * (ys.max() - ys.min() + 1)
        allowed = mask_bits & polygon_membership(verts, w, h)
        if (diff & ~allowed).any():
            violations += 1
    verdict(9, violations == 0, f"byte diffs confined to polygon-and-mask in {checked}/1000 triples")


# ---------------------------------------------------------------------------
# Criterion 10: fixture round-trip, filters, warm cache


def test_acceptance_10_fixture_round_trip(tmp_path):
    root = tmp_path / "archive"
    coords = make_history_archive([0, 1, 2], root, side=48, renders_per_sign=3, seed=0)
    cache = tmp_path / "cache"
    before = date(2025, 1, 1)
    problems = []
    with HistoryFixtureServer(str(root)) as server:
        client = RemoteHistoryClient(server.url, cache_dir=cache)
        first = {}
        for i, (lat, lon, heading) in enumerate(coords):
            q = HistoryQuery(location=(lat, lon), heading=heading, max_records=3, before=before)
            records = client.query(q)
            first[i] = records
            if len(records) != 3:
                problems.append(f"sign {i}: {len(records)} records")
            dates = [r.capture_date for r in records]
            if dates != sorted(dates, reverse=True):
                problems.append(f"sign {i}: not newest-first {dates}")
            for r in records:
                if haversine_law_of_cosines((lat, lon), r.location) > 25.0:
                    problems.append(f"sign {i}: record outside 25 m")
                if abs((r.heading - heading + 180) % 360 - 180) > 45.0:
                    problems.append(f"sign {i}: heading outside tolerance")
                if r.capture_date >= before:
                    problems.append(f"sign {i}: capture on/after requeried date")
        # Filter rejections: too far, wrong heading, too-early cutoff.
        lat0, lon0, h0 = coords[0]
        if client.query(HistoryQuery(location=(lat0 + 0.0005, lon0), heading=h0, before=before)):
            problems.append("55 m away still matched (radius filter)")
        if client.query(HistoryQuery(location=(lat0, lon0), heading=h0 + 90.0, before=before)):
            problems.append("perpendicular heading matched (heading filter)")
        if client.query(
            HistoryQuery(location=(lat0, lon0), heading=h0, before=date(2016, 10, 12))
        ):
            problems.append("date bound ignored (before filter)")
        client.close()

        stats_warm = requests.get(server.url + "/stats", timeout=5).json()
        fresh = RemoteHistoryClient(server.url, cache_dir=cache)
        for i, (lat, lon, heading) in enumerate(coords):
            q = HistoryQuery(location=(lat, lon), heading=heading, max_records=3, before=before)
            records = fresh.query(q)
            if fresh.last_network_requests != 0:
                problems.append(f"sign {i}: warm cache touched the network")
            for a, b in zip(first[i], records):
                if not np.array_equal(a.image.pixels, b.image.pixels):
                    problems.append(f"sign {i}: warm cache returned different pixels")
        fresh.close()
        stats_after = requests.get(server.url + "/stats", timeout=5).json()
        if stats_after["hits"] != stats_warm["hits"]:
            problems.append(f"server hits grew {stats_warm['hits']} -> {stats_after['hits']}")
    verdict(
        10,
        not problems,
        "remote history: newest-first, radius/heading/date filters, zero-hit warm cache"
        if not problems
        else "; ".join(problems[:4]),
    )


# ---------------------------------------------------------------------------
# Criterion 11: end-to-end reproducibility


SMALL_SWEEP_CFG = (
    "synth.per_class = 6\n"
    "synth.test_per_class = 1\n"
    "train.epochs = 2\n"
    "attack.swarm = 6\n"
    "attack.iterations = 6\n"
)
# report.csv of the seed-7 small sweep: the same bytes under the SkylakeX,
# Haswell and Sandybridge OpenBLAS kernels, though weights.csw differs.
SMALL_SWEEP_CSV_SHA256 = "4405b32845006f3e399cb6db04c413498b55c5ff33b1bb4f625f27764a788292"


def test_acceptance_11_sweep_reproducibility(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SWEEP_CFG)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(
            ["--seed", "7", "--config", str(cfg), "--out", str(out), "sweep", "--max-images", "4"]
        )
        assert rc == 0
        outputs.append((out / "report.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    verdict(
        11,
        ok,
        f"two seed-7 sweeps emitted byte-identical report.csv ({len(outputs[0])} bytes)",
    )


def test_sweep_bytes_match_across_worker_counts(tmp_path, cpus):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SWEEP_CFG)
    outputs = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / str(n)
        rc = cli_main(
            ["--seed", "7", "--config", str(cfg), "--out", str(out), "sweep", "--max-images", "4"]
        )
        assert rc == 0
        outputs.append([(out / name).read_bytes() for name in ("report.csv", "weights.csw", "baseline.csw")])
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0][0]).hexdigest() == SMALL_SWEEP_CSV_SHA256


# Runs the two small sweeps of the test above in a fresh process, where
# OPENBLAS_CORETYPE takes effect, and prints the kernel that ran them and
# the digests of each sweep's report.csv, weights.csw and baseline.csw.
_SWEEPS_IN_A_PROCESS = """
import ctypes, hashlib, json, os, sys
from pathlib import Path
import numpy as np
from chrono_shield.cli import main

cfg, root = sys.argv[1], Path(sys.argv[2])
kernel = None
for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*.so*")):
    corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
digests = []
for n in (1, 2):
    os.sched_getaffinity = lambda pid, n=n: set(range(n))
    out = root / str(n)
    assert main(["--seed", "7", "--config", cfg, "--out", str(out), "sweep", "--max-images", "4"]) == 0
    digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("report.csv", "weights.csw", "baseline.csw")])
print(json.dumps({"kernel": kernel, "digests": digests}))
"""


def _has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return any(line.startswith("flags") and "avx2" in line.split() for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx2(), reason="OpenBLAS's Haswell kernels need AVX2")
def test_sweep_bytes_match_across_worker_counts_on_the_haswell_kernel(tmp_path):
    # The trained weights follow the BLAS kernel; report.csv and its
    # independence from the worker count must not.
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SWEEP_CFG)
    src = str(Path(chrono_shield.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEPS_IN_A_PROCESS, str(cfg), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["kernel"] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell ran the {result['kernel']} kernel")
    one, two = result["digests"]
    assert one == two
    assert one[0] == SMALL_SWEEP_CSV_SHA256
