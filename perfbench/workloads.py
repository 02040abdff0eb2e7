"""The benchmark's three workloads: train, attack and defend.

Each is a closed loop driven by one client in one process. setup() builds
the inputs from the seed, warm_up() runs a little of the work untimed,
phase(seconds) runs timed units of work until the time is spent, or a
given number of units, and check(phase) verifies the outputs of that phase outside the timed region.
The program receives only the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from chrono_shield import attack, cnn, defense, harness, history, masks, synth
from chrono_shield.dataset import LabeledImageSet
from chrono_shield.fixture_server import HistoryFixtureServer
from victim import load_victim

MODEL = cnn.ModelConfig(input_side=32)  # what the sweep trains on 64 px frames
SIDE = synth.SynthConfig().side
HISTORY = defense.VotePolicy().min_history  # records per query, renders per sign
JITTER_DEG = 20.0  # vehicle heading noise around a sign's face
PROBE_SIGNS = 128  # signs on the shared-pole route, two to a pole


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is what the benchmark runs; the smoke test runs TINY."""

    per_class: int = synth.SynthConfig().per_class  # 1,600 train images
    test_per_class: int = synth.SynthConfig().test_per_class  # 64 test images
    route_signs: int = 256  # p96 is the highest percentile with 10 verdicts beyond it
    swarm: int = attack.AttackConfig().swarm
    iterations: int = attack.AttackConfig().iterations


FULL = Scale()
TINY = Scale(per_class=2, test_per_class=1, route_signs=6, swarm=4, iterations=2)


@dataclass
class Phase:
    seconds: float  # timed wall time
    throughput: float  # work units per second
    attempted: int
    figures: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    counters: dict = field(default_factory=dict)  # benchmark-side counts for the per-layer table
    pending: list = field(default_factory=list)  # what check() verifies


def _another(done: int, start: float, last: float, seconds: float, units: int | None) -> bool:
    """Whether to run one more unit of work: until `units` are done when it
    is given, else while one more unit as long as the last ends nearer the
    deadline than stopping now does."""
    if units is not None:
        return done < units
    return time.perf_counter() - start + last / 2 < seconds


def _tail(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[95]


def _dataset(seed: int, scale: Scale) -> LabeledImageSet:
    config = synth.SynthConfig(per_class=scale.per_class, test_per_class=scale.test_per_class, seed=seed)
    return synth.synth_dataset(config)


class Train:
    """Synthesize the corpus, then train one epoch at batch 32 and evaluate, in rounds.

    Every round is the same computation, so the median round is steady and
    the accuracy is bit-exact for a seed. Training is the only place the
    backward pass runs.
    """

    unit = "training samples"
    traced_units = 1  # rounds

    def __init__(self, seed: int, scale: Scale, workdir):
        self.seed, self.scale = seed, scale
        self.config = cnn.TrainConfig(epochs=1, seed=seed)

    def setup(self) -> dict:
        start = time.perf_counter()
        self.dataset = _dataset(self.seed, self.scale)
        return {"synth.dataset_s": time.perf_counter() - start}

    def warm_up(self) -> None:
        train = [item for item in self.dataset.items if item[2] == "train"]
        few = [item for k, item in enumerate(train) if k % self.scale.per_class < 2]
        weights = cnn.train(LabeledImageSet(self.dataset.class_names, few), self.config, MODEL)
        cnn.evaluate(weights, self.dataset.split("test"))

    def phase(self, seconds: float, units: int | None = None) -> Phase:
        samples = len(self.dataset.split("train"))
        test = self.dataset.split("test")
        train_s, rounds = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                weights = cnn.train(self.dataset, self.config, MODEL)
                t1 = time.perf_counter()
                accuracy, loss = cnn.evaluate(weights, test)
            except FloatingPointError:
                t1, accuracy, loss = time.perf_counter(), 0.0, float("nan")
            t2 = time.perf_counter()
            train_s.append(t1 - t0)
            rounds.append((accuracy, loss))
            if not _another(len(rounds), start, t2 - t0, seconds, units):
                break
        rate = samples / statistics.median(train_s)
        return Phase(
            seconds=time.perf_counter() - start,
            throughput=rate,
            attempted=len(rounds),
            figures={
                "train.samples_per_s": (rate, "1/s", len(rounds)),
                "train.test_accuracy": (rounds[-1][0], "ratio", len(test)),
            },
            counters={"train_samples": samples * len(rounds)},
            pending=rounds,
        )

    def check(self, phase: Phase) -> int:
        """A round fails when its loss is not finite."""
        return sum(not np.isfinite(loss) for _, loss in phase.pending)

    def known_defects(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Attack:
    """PSO shadow attack through harness.run_attack_sweep over the test split.

    The victim is the shipped seed-0 model. Each sweep call attacks one
    test image of every class, so a per-row parallel sweep shows. An image
    costs from one to a hundred and one swarm evaluations, so the throughput
    unit is the shadowed candidate, one victim query: images per second
    swings with how many images hold out for all iterations.
    """

    unit = "shadowed candidates"
    traced_units = 1  # sweeps

    def __init__(self, seed: int, scale: Scale, workdir):
        self.seed, self.scale = seed, scale
        self.config = dataclasses.replace(
            attack.AttackConfig(seed=seed), swarm=scale.swarm, iterations=scale.iterations
        )

    def setup(self) -> dict:
        self.victim = load_victim()
        start = time.perf_counter()
        self.dataset = _dataset(self.seed, self.scale)
        seconds = time.perf_counter() - start
        rng = np.random.default_rng(self.seed)
        by_class: dict[int, list] = {}
        for item in self.dataset.split("test"):
            by_class.setdefault(item[1], []).append(item)
        for items in by_class.values():
            rng.shuffle(items)
        # Sweep k takes the k-th image of every class: attack cost depends on
        # the class (stop and yield signs rarely flip and take all 100 PSO
        # iterations), so every sweep costs about the same.
        self.chunks = [
            [items[k] for items in by_class.values() if k < len(items)]
            for k in range(max(map(len, by_class.values())))
        ]
        return {"synth.dataset_s": seconds}

    def _sweep(self, items, config):
        subset = LabeledImageSet(self.dataset.class_names, [(img, label, "test") for img, label in items])
        report = harness.run_attack_sweep(self.victim, subset, config)
        csv = harness.emit_report(report, "csv")
        return subset, report, csv

    def warm_up(self) -> None:
        self._sweep(self.chunks[0][:1], dataclasses.replace(self.config, iterations=1))

    def phase(self, seconds: float, units: int | None = None) -> Phase:
        sweeps = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            sweeps.append(self._sweep(self.chunks[len(sweeps) % len(self.chunks)], self.config))
            if not _another(len(sweeps), start, time.perf_counter() - t0, seconds, units):
                break
        elapsed = time.perf_counter() - start
        rows = [row for _, report, _ in sweeps for row in report.attack_rows]
        candidates = sum(self.config.swarm * (row.iterations + 1) for row in rows)
        flips = sum(row.success for row in rows)
        return Phase(
            seconds=elapsed,
            throughput=candidates / elapsed,
            attempted=len(rows),
            figures={
                "attack.images_per_s": (len(rows) / elapsed, "1/s", len(rows)),
                "attack.flip_rate": (flips / max(len(rows), 1), "ratio", len(rows)),
            },
            counters={
                "attack.candidates": candidates,
                "attack.pso_iterations": sum(row.iterations for row in rows),
                "attack.flips": flips,
                "attack.csv_sha256": hashlib.sha256(sweeps[0][2]).hexdigest(),
            },
            pending=sweeps,
        )

    def check(self, phase: Phase) -> int:
        """A row fails when the shadow leaves its mask, when re-scoring the
        returned image gives another label, or when success disagrees with
        the label change."""
        failed = 0
        for subset, report, _ in phase.pending:
            for row in report.attack_rows:
                clean = subset.items[row.image_id][0]
                if row.mask_note:
                    allowed = np.ones((clean.height, clean.width), dtype=bool)
                else:
                    allowed = masks.generate_mask(clean).bits
                changed = (row.adversarial_image.pixels != clean.pixels).any(axis=2)
                rescored = cnn.predict_batch(self.victim, [row.adversarial_image])[0].label
                ok = (
                    not (changed & ~allowed).any()
                    and rescored == row.adv_label
                    and row.success == (row.adv_label != row.clean_label)
                )
                failed += not ok
        return failed

    def known_defects(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _share_poles(root, coords, rng):
    """Move every odd-numbered sign onto the previous sign's pole, facing
    within 90 degrees of it. make_history_archive writes HISTORY manifest
    rows per sign, in sign order."""
    path = root / "manifest.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    coords = list(coords)
    for i in range(1, len(coords), 2):
        lat, lon, heading = coords[i - 1]
        coords[i] = (lat, lon, heading + rng.uniform(-90.0, 90.0))
        for row in rows[i * HISTORY : (i + 1) * HISTORY]:
            row.update(lat=lat, lon=lon, heading=coords[i][2])
    path.write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return coords


def _queries(coords, rng) -> list:
    """One query per sign at its mapped location, with the vehicle's heading jittered."""
    return [
        history.HistoryQuery(
            location=(lat, lon),
            heading=(heading + rng.uniform(-JITTER_DEG, JITTER_DEG)) % 360.0,
            max_records=HISTORY,
            before=harness.QUERY_DATE,
        )
        for lat, lon, heading in coords
    ]


def _answer(records) -> list:
    return [(r.capture_date, r.location, r.heading, r.image.pixels.shape, r.image.pixels.tobytes()) for r in records]


def _wrong(answers, truth) -> int:
    """How many remote answers are missing or differ from query_archive's."""
    return sum(a is None or t is None or _answer(a) != _answer(t) for a, t in zip(answers, truth))


class Defend:
    """Drive a mapped route and defend a shadowed frame at every sign.

    Each drive makes three passes with one verdict per sign: local reads
    the archive with query_archive, cold asks the in-process fixture server
    through a RemoteHistoryClient with an empty cache, and warm drives
    again with fresh heading jitter on that cache. The route has one sign
    per pole, as make_history_archive maps it.
    """

    unit = "verdicts"
    traced_units = 1  # drives
    passes = ("local", "cold", "warm")

    def __init__(self, seed: int, scale: Scale, workdir):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.server = None
        self._setups = 0
        self._caches = 0

    def setup(self) -> dict:
        self.victim = load_victim()
        rng = np.random.default_rng(self.seed)
        t0 = time.perf_counter()
        self.labels = rng.integers(0, len(synth.CLASS_NAMES), size=self.scale.route_signs).tolist()
        everywhere = masks.BinaryMask.full(SIDE, SIDE)
        darkening = attack.AttackConfig().darkening
        self.frames = [
            attack.apply_shadow(
                synth.render_sign(label, SIDE, rng),
                everywhere,
                attack.ShadowSpec(vertices=rng.uniform(0.0, 1.0, size=(3, 2)), darkening=darkening),
            )
            for label in self.labels
        ]
        t1 = time.perf_counter()
        self._setups += 1
        self.root = self.workdir / f"archive-{self._setups}"
        self.coords = synth.make_history_archive(
            self.labels, self.root, side=SIDE, renders_per_sign=HISTORY, seed=self.seed + 1
        )
        return {"synth.dataset_s": t1 - t0, "synth.archive_s": time.perf_counter() - t1}

    def _client(self, url: str):
        self._caches += 1
        client = history.RemoteHistoryClient(url, cache_dir=self.workdir / f"cache-{self._caches}")
        client.session.trust_env = False  # the server is in this process: no proxy, no netrc
        return client

    def _pass(self, queries, fetch, client=None) -> dict:
        latencies, answers = [], []
        network = hits = fetch_failures = 0
        for frame, query in zip(self.frames, queries):
            t0 = time.perf_counter()
            try:
                records = fetch(query)
                defense.defend(frame, records, self.victim)
            except (OSError, ValueError):
                records = None
            latencies.append(time.perf_counter() - t0)
            answers.append(records)
            if client is not None:
                network += client.last_network_requests
                hits += client.last_network_requests == 0
                fetch_failures += client.last_failures
        return {"latencies": latencies, "answers": answers, "network": network, "hits": hits, "failures": fetch_failures}

    def warm_up(self) -> None:
        self.server = HistoryFixtureServer(self.root).start()
        client = self._client(self.server.url)
        queries = _queries(self.coords, np.random.default_rng([self.seed, 1 << 20]))[:4]
        self._pass(queries, lambda q: history.query_archive(self.root, q))
        self._pass(queries, lambda q: client.query(q), client)

    def _drive(self, index: int) -> dict:
        rng = np.random.default_rng([self.seed, index])
        first, second = _queries(self.coords, rng), _queries(self.coords, rng)
        client = self._client(self.server.url)
        before = self.server.stats()
        local = self._pass(first, lambda q: history.query_archive(self.root, q))
        cold = self._pass(first, lambda q: client.query(q), client)
        warm = self._pass(second, lambda q: client.query(q), client)
        after = self.server.stats()
        return {
            "local": local,
            "cold": cold,
            "warm": warm,
            "first": first,
            "second": second,
            "history_requests": after["history"] - before["history"],
            "image_requests": after["image"] - before["image"],
        }

    def phase(self, seconds: float, units: int | None = None) -> Phase:
        drives = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            drives.append(self._drive(len(drives)))
            if not _another(len(drives), start, time.perf_counter() - t0, seconds, units):
                break
        busy = sum(sum(d[p]["latencies"]) for d in drives for p in self.passes)
        verdicts = sum(len(d[p]["latencies"]) for d in drives for p in self.passes)
        figures = {}
        for p in self.passes:
            ms = [1e3 * s for d in drives for s in d[p]["latencies"]]
            figures[f"defend.{p}_p50_ms"] = (statistics.median(ms), "ms", len(ms))
            figures[f"defend.{p}_p96_ms"] = (_tail(ms), "ms", len(ms))
        remote = [d[p] for d in drives for p in ("cold", "warm")]
        return Phase(
            seconds=time.perf_counter() - start,
            throughput=verdicts / busy,
            attempted=verdicts,
            figures=figures,
            counters={
                "history.network_requests": sum(r["network"] for r in remote),
                "history.remote_queries": sum(len(r["latencies"]) for r in remote),
                "history.cache_hits": sum(r["hits"] for r in remote),
                "history.fetch_failures": sum(r["failures"] for r in remote),
                "fixture_server.history_requests": sum(d["history_requests"] for d in drives),
                "fixture_server.image_requests": sum(d["image_requests"] for d in drives),
            },
            pending=drives,
        )

    def check(self, phase: Phase) -> int:
        """A verdict fails when its history query raised, or when a cold or
        warm answer differs from query_archive's for the same query."""
        failed = 0
        for drive in phase.pending:
            truth_first = drive["local"]["answers"]
            truth_second = [history.query_archive(self.root, q) for q in drive["second"]]
            failed += sum(a is None for a in truth_first)
            failed += _wrong(drive["cold"]["answers"], truth_first) + _wrong(drive["warm"]["answers"], truth_second)
        return failed

    def known_defects(self) -> dict:
        """Remote answers that differ from query_archive's on a route that
        shows a known client bug, counted untimed and apart from the checks.

        The remote client keys its query cache on a 45-degree heading
        bucket, while the server filters on the exact heading. Here every
        pole carries two signs facing within 90 degrees of each other, so
        two headings in one bucket can select different records, and the
        second query gets the records fetched for the first. On the checked
        route every heading within the jitter selects the same records.
        The count reads 0 once the cache keys on the heading it sends.
        """
        rng = np.random.default_rng([self.seed, 1 << 21])
        root = self.workdir / "shared-poles"
        coords = synth.make_history_archive(
            self.labels[:PROBE_SIGNS], root, side=SIDE, renders_per_sign=HISTORY, seed=self.seed + 1
        )
        coords = _share_poles(root, coords, rng)
        server = HistoryFixtureServer(root).start()
        try:
            client = self._client(server.url)
            stale = 0
            for queries in (_queries(coords, rng), _queries(coords, rng)):  # cold, then warm
                answers = [client.query(q) for q in queries]
                stale += _wrong(answers, [history.query_archive(root, q) for q in queries])
        finally:
            server.stop()
        return {"history.stale_cache_answers": stale}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {"train": Train, "attack": Attack, "defend": Defend}
