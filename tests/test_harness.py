"""Synthetic corpus, config files, sweep plumbing, report emission, CLI."""

import csv
import dataclasses
import hashlib
import json
import logging
import os
import socket
import typing
from datetime import date

import numpy as np
import pytest

from chrono_shield import cli, harness, history
from chrono_shield.attack import AttackConfig, InvalidConfig
from chrono_shield.cnn import (
    Classifier,
    ModelConfig,
    ModelWeights,
    TrainConfig,
    init_weights,
    predict_batch,
    save_weights,
    train,
)
from chrono_shield.codecs import load_image, save_image
from chrono_shield.configfile import (
    BadConfigLine,
    UnknownConfigKey,
    apply_overrides,
    parse_config_text,
)
from chrono_shield.dataset import DatasetMalformed, LabeledImageSet, load_dataset
from chrono_shield.defense import DefenseWarning, Verdict, Vote
from chrono_shield.fixture_server import HistoryFixtureServer
from chrono_shield.harness import (
    AttackRecord,
    ExperimentReport,
    QUERY_DATE,
    emit_report,
    run_attack_sweep,
    run_defense_sweep,
    run_full_sweep,
    train_adversarial_baseline,
)
from chrono_shield.history import (
    HistoryQuery,
    LocalArchive,
    ManifestMissing,
    MatchPolicy,
    RemoteHistoryClient,
    query_archive,
)
from chrono_shield.masks import BinaryMask, MaskParams
from chrono_shield.synth import (
    CLASS_NAMES,
    PROBE_SHAPES,
    SynthConfig,
    make_history_archive,
    render_shape_probe,
    render_sign,
    synth_dataset,
)

from conftest import csw1_container, flat_image, run_cli

TINY_MODEL = ModelConfig(input_side=16, channels=(4, 4, 4), num_classes=16)


def zeroed(cfg: ModelConfig) -> ModelWeights:
    w = init_weights(cfg, seed=0)
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_w", "fc_b"):
        setattr(w, name, np.zeros_like(getattr(w, name)))
    return w


# ---------------------------------------------------------------------------
# Synthetic corpus


class TestSynth:
    def test_deterministic_under_seed(self):
        cfg = SynthConfig(per_class=2, test_per_class=1, side=32, seed=3)
        a = synth_dataset(cfg)
        b = synth_dataset(cfg)
        assert len(a.items) == len(b.items) == 16 * 3
        for (ia, la, sa), (ib, lb, sb) in zip(a.items, b.items):
            assert (la, sa) == (lb, sb)
            assert np.array_equal(ia.pixels, ib.pixels)

    def test_seed_changes_pixels(self):
        a = synth_dataset(SynthConfig(per_class=1, test_per_class=0, side=32, seed=0))
        b = synth_dataset(SynthConfig(per_class=1, test_per_class=0, side=32, seed=1))
        assert any(
            not np.array_equal(ia.pixels, ib.pixels)
            for (ia, _, _), (ib, _, _) in zip(a.items, b.items)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [dict(per_class=0), dict(test_per_class=-1), dict(side=8)],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(InvalidConfig):
            synth_dataset(SynthConfig(**kwargs))

    def test_every_class_renders(self, rng):
        for label in range(16):
            img = render_sign(label, 48, rng)
            assert (img.width, img.height) == (48, 48)
            # A sign is visibly distinct from its background.
            assert img.pixels.std() > 10

    def test_split_counts(self):
        ds = synth_dataset(SynthConfig(per_class=3, test_per_class=2, side=32, seed=0))
        assert len(ds.split("train")) == 48
        assert len(ds.split("test")) == 32
        assert ds.class_names == CLASS_NAMES

    def test_probe_contrast_and_truth(self, rng):
        for shape in PROBE_SHAPES:
            img, truth = render_shape_probe(shape, rng)
            assert truth.shape == (img.height, img.width)
            assert truth.any() and not truth.all()
            fill = img.pixels[truth][:, 0].astype(int)
            bg = img.pixels[~truth][:, 0].astype(int)
            assert fill.min() - bg.max() >= 75  # ~80 minus rounding slack

    def test_probe_rejects_unknown_shape(self, rng):
        with pytest.raises(ValueError):
            render_shape_probe("dodecahedron", rng)


class TestHistoryArchive:
    def test_manifest_rows_and_coords(self, tmp_path):
        coords = make_history_archive([0, 7], tmp_path, side=32, renders_per_sign=3, seed=1)
        assert coords == [(40.0, -74.0, 90.0), (40.001, -74.0, 90.0)]
        with open(tmp_path / "manifest.json", "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        assert len(rows) == 6
        dates = {r["date"] for r in rows}
        assert dates == {"2016-10-12", "2019-07-03", "2020-11-21"}
        for r in rows:
            assert os.path.exists(tmp_path / r["path"])

    def test_extra_renders_extend_dates_backward(self, tmp_path):
        make_history_archive([0], tmp_path, side=32, renders_per_sign=5, seed=0)
        with open(tmp_path / "manifest.json", "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        dates = sorted(r["date"] for r in rows)
        assert len(dates) == len(set(dates)) == 5  # all distinct


# ---------------------------------------------------------------------------
# Config files


class TestConfigFile:
    def test_comments_and_blank_lines(self):
        text = "\n# full comment\n  train.epochs = 5  # trailing\n\nsynth.side=32\n"
        assert parse_config_text(text) == {"train.epochs": "5", "synth.side": "32"}

    def test_bad_lines(self):
        with pytest.raises(BadConfigLine):
            parse_config_text("train.epochs 5")
        with pytest.raises(BadConfigLine):
            parse_config_text("= 5")

    def test_coercion_per_field_type(self):
        values = {
            "train.epochs": "5",
            "train.learning_rate": "0.25",
            "model.channels": "8,16,32",
        }
        tcfg = apply_overrides(TrainConfig(), values, "train")
        assert tcfg.epochs == 5 and tcfg.learning_rate == 0.25
        mcfg = apply_overrides(ModelConfig(), values, "model")
        assert mcfg.channels == (8, 16, 32)

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownConfigKey):
            apply_overrides(TrainConfig(), {"train.warp_speed": "9"}, "train")

    def test_prefix_isolation(self):
        values = {"train.epochs": "5", "synth.side": "48"}
        scfg = apply_overrides(SynthConfig(), values, "synth")
        assert scfg.side == 48
        # train.* keys are not consumed by the synth prefix.
        assert scfg == dataclasses.replace(SynthConfig(), side=48)

    @pytest.mark.parametrize("key", ["train.opt.beta", "train.epochs.x", "train"])
    def test_nested_dotted_key_rejected(self, key):
        # A deeper path, or the bare namespace, names no field of the stage.
        with pytest.raises(UnknownConfigKey, match=repr(key)):
            apply_overrides(TrainConfig(), {key: "5"}, "train")

    @pytest.mark.parametrize("key, value", [("swarm", "abc"), ("inertia", "fast"), ("swarm", "1.5")])
    def test_non_numeric_number_rejected(self, key, value):
        with pytest.raises(BadConfigLine, match=repr(value)):
            apply_overrides(AttackConfig(), {f"attack.{key}": value}, "attack")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            f"{stage}.{name}"
            for stage, config in harness.STAGES.items()
            for name, hint in typing.get_type_hints(config).items()
            if hint is float
        ],
    )
    def test_non_finite_number_rejected(self, key, value):
        # A NaN radius or heading tolerance would match every archive row.
        stage = key.partition(".")[0]
        with pytest.raises(BadConfigLine, match=repr(value)):
            apply_overrides(harness.STAGES[stage](), {key: value}, stage)


# ---------------------------------------------------------------------------
# Attack sweep plumbing


class TestAttackSweep:
    def test_only_clean_correct_images_attacked(self):
        # Zero weights predict class 0 uniformly, so exactly the one
        # class-0 test image qualifies, and an all-equal softmax can
        # never flip: the sweep must report one failed attack.
        ds = synth_dataset(SynthConfig(per_class=1, test_per_class=1, side=32, seed=0))
        weights = zeroed(ModelConfig(input_side=32, channels=(4, 4, 4), num_classes=16))
        report = run_attack_sweep(weights, ds, AttackConfig(swarm=2, iterations=2, seed=0))
        assert len(report.attack_rows) == 1
        row = report.attack_rows[0]
        assert row.true_label == 0 and row.clean_label == 0
        assert not row.success
        assert report.attack_success_rate() == 0.0
        assert row.adversarial_image is not None and row.shadow is not None

    def test_attack_image_falls_back_to_the_full_frame(self, monkeypatch):
        seen = []
        run_attack = harness.run_attack
        monkeypatch.setattr(harness, "run_attack", lambda img, mask, *rest: seen.append(mask) or run_attack(img, mask, *rest))
        victim = Classifier(zeroed(TINY_MODEL))
        result, note = harness.attack_image(flat_image(128, 16, 16), 0, victim, AttackConfig(swarm=2, iterations=1), MaskParams())
        assert note == "full-frame fallback: no contour found"
        assert len(seen) == 1 and seen[0].bits.shape == (16, 16) and seen[0].bits.all()
        assert result.adversarial_image.pixels.shape == (16, 16, 3)

    def test_max_images_caps_the_sweep(self):
        ds = synth_dataset(SynthConfig(per_class=1, test_per_class=1, side=32, seed=0))
        weights = zeroed(ModelConfig(input_side=32, channels=(4, 4, 4), num_classes=16))
        report = run_attack_sweep(
            weights, ds, AttackConfig(swarm=2, iterations=2, seed=0), max_images=0
        )
        assert report.attack_rows == []
        assert report.attack_success_rate() is None

    def test_rows_match_across_worker_counts(self, cpus):
        weights = init_weights(TINY_MODEL, seed=2)  # flips 6 of 14 rows at mixed iteration counts
        ds = self_labelled_test_set(weights, wrong={1, 3})
        config = AttackConfig(swarm=4, iterations=3, seed=0)
        reports = []
        for n in (1, 2):
            cpus(n)
            reports.append(run_attack_sweep(weights, ds, config))
        one, two = (r.attack_rows for r in reports)
        assert [r.image_id for r in one] == [i for i in range(16) if i not in (1, 3)]
        assert len(one) == len(two)
        for a, b in zip(one, two):
            for f in dataclasses.fields(AttackRecord):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if f.name == "adversarial_image":
                    assert np.array_equal(x.pixels, y.pixels)
                elif f.name == "shadow":
                    assert np.array_equal(x.vertices, y.vertices) and x.darkening == y.darkening
                else:
                    assert x == y, f.name

    def test_max_images_takes_the_first_correct_images_in_order(self, cpus, caplog):
        cpus(2)
        weights = init_weights(TINY_MODEL, seed=2)
        ds = self_labelled_test_set(weights, wrong={0, 2, 3})
        with caplog.at_level(logging.INFO, logger=harness.__name__):
            report = run_attack_sweep(weights, ds, AttackConfig(swarm=4, iterations=3, seed=0), max_images=4)
        assert [r.image_id for r in report.attack_rows] == [1, 4, 5, 6]
        logged = [r.args[:3] for r in caplog.records if r.msg.startswith("attack %d/%d")]
        assert logged == [(1, 4, 1), (2, 4, 4), (3, 4, 5), (4, 4, 6)]
        # Without max_images every correct image is attacked, and the count
        # runs to the number of rows, not of test images.
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=harness.__name__):
            report = run_attack_sweep(weights, ds, AttackConfig(swarm=4, iterations=3, seed=0))
        ids = [i for i in range(16) if i not in {0, 2, 3}]
        assert [r.image_id for r in report.attack_rows] == ids
        logged = [r.args[:3] for r in caplog.records if r.msg.startswith("attack %d/%d")]
        assert logged == [(n, 13, i) for n, i in enumerate(ids, 1)]


def self_labelled_test_set(weights: ModelWeights, wrong: set[int]) -> LabeledImageSet:
    """One synthetic test frame per class, each labelled with the class the
    victim predicts for it, except the frames in `wrong`, which it misclassifies."""
    ds = synth_dataset(SynthConfig(per_class=1, test_per_class=1, side=32, seed=0))
    frames = [img for img, _ in ds.split("test")]
    predicted = [p.label for p in predict_batch(weights, frames)]
    items = [(img, (label + (i in wrong)) % 16, "test") for i, (img, label) in enumerate(zip(frames, predicted))]
    return LabeledImageSet(list(ds.class_names), items)


# ---------------------------------------------------------------------------
# Report aggregates and emission


def attack_row(image_id=0, success=False, **kw):
    base = dict(
        image_id=image_id,
        true_label=0,
        clean_label=0,
        clean_confidence=0.9,
        adv_label=1 if success else 0,
        adv_confidence=0.8,
        success=success,
        iterations=3,
    )
    base.update(kw)
    return AttackRecord(**base)


def verdict(voted_label=0, votes=(), warnings=()):
    """A Verdict for attack_row's true label 0: correct when voted_label is 0."""
    return Verdict(voted_label, 0.8, list(votes), suspected_attack=True, warnings=list(warnings))


class TestReportAggregates:
    def test_empty_report_rates_are_none(self):
        r = ExperimentReport(class_names=list(CLASS_NAMES))
        assert r.attack_success_rate() is None
        assert r.defense_success_rate() is None
        assert r.baseline_defense_rate() is None

    def test_handcrafted_rates(self):
        r = ExperimentReport(class_names=list(CLASS_NAMES))
        r.attack_rows = [
            attack_row(0, True, defense=verdict(0), baseline_label=0),
            attack_row(1, True, defense=verdict(1), baseline_label=1),
            # Failed attack: excluded from both defended rates.
            attack_row(2, False, defense=verdict(0), baseline_label=0),
        ]
        assert r.attack_success_rate() == pytest.approx(2 / 3)
        assert r.defense_success_rate() == pytest.approx(1 / 2)
        assert r.baseline_defense_rate() == pytest.approx(1 / 2)


class TestEmitReport:
    def sample(self):
        r = ExperimentReport(class_names=list(CLASS_NAMES))
        r.attack_rows = [attack_row(0, True, defense=verdict(0)), attack_row(1, False)]
        r.meta = {"seed": 0}
        return r

    def test_empty_text(self):
        out = emit_report(ExperimentReport(class_names=[]), "text-table")
        assert b"empty report" in out

    def test_csv_shape(self):
        out = emit_report(self.sample(), "csv").decode()
        lines = out.strip().split("\n")
        comments = [l for l in lines if l.startswith("# ")]
        assert len(comments) == 3
        assert comments[0].startswith("# attack_success_rate=")
        header = lines[3].split(",")
        assert header[0] == "image_id" and "voters" in header
        assert len(lines) == 3 + 1 + 2  # comments + header + one row per image

    def test_json_round_trip(self):
        doc = json.loads(emit_report(self.sample(), "json").decode())
        assert doc["class_names"] == CLASS_NAMES
        assert len(doc["attack_rows"]) == 2
        assert doc["aggregates"]["attack_success_rate"] == pytest.approx(0.5)
        assert doc["meta"] == {"seed": 0}

    def test_byte_determinism(self):
        for fmt in ("text-table", "csv", "json"):
            assert emit_report(self.sample(), fmt) == emit_report(self.sample(), fmt)

    # SHA-256 of emit_report(sample()): csv and text-table as the hand-listed
    # emitters wrote them, json with each row's defense the Verdict itself;
    # a change to these bytes must be a deliberate one.
    GOLDEN = {
        "csv": "10ef1dd29580b8eb9559be40de3e8648f6c6b9a33be00a143bd5abee6cf530bb",
        "json": "6106dcc97f5ebd1fcb641981c384c22c489b0301f91aa27fd820329ef1a521df",
        "text-table": "eb05f37514f70845ac2b9be0a0c1a9e1e94eda4f07503b2aeb897be939a7bd0d",
    }

    @pytest.mark.parametrize("fmt", sorted(GOLDEN))
    def test_golden_bytes(self, fmt):
        assert hashlib.sha256(emit_report(self.sample(), fmt)).hexdigest() == self.GOLDEN[fmt]

    def test_json_rows_are_the_record_fields(self):
        doc = json.loads(emit_report(self.sample(), "json").decode())
        carried = {"adversarial_image", "shadow"}
        attack_keys = {f.name for f in dataclasses.fields(AttackRecord)} - carried
        assert all(set(row) == attack_keys for row in doc["attack_rows"])
        defense_keys = {f.name for f in dataclasses.fields(Verdict)}
        defended, held = doc["attack_rows"]
        assert set(defended["defense"]) == defense_keys and held["defense"] is None
        assert defended["defense"]["votes"] == [] and defended["defense"]["warnings"] == []
        assert defended["baseline_label"] is None and held["baseline_label"] is None
        assert set(doc) == {"class_names", "attack_rows", "aggregates", "meta"}

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.sample(), "yaml")

    def test_label_past_the_names_reads_class_n(self):
        # A model may have more outputs than the corpus has names.
        r = ExperimentReport(class_names=["stop", "yield"])
        defense = verdict(19, votes=[Vote("current", 19, 0.7)], warnings=[DefenseWarning.TIE_BROKEN])
        r.attack_rows = [attack_row(0, True, adv_label=19, defense=defense, baseline_label=19)]
        lines = [line for line in emit_report(r, "csv").decode().splitlines() if not line.startswith("#")]
        row = next(csv.DictReader(lines))
        assert (row["true"], row["adv"], row["baseline"], row["voted"]) == ("stop", "class_19", "class_19", "class_19")
        assert (row["voters"], row["warnings"]) == ("current::class_19:70.00", "TIE_BROKEN")
        assert emit_report(r, "text-table").decode().count("class_19") == 3  # adversarial, voted, voter
        doc = json.loads(emit_report(r, "json"))
        assert doc["attack_rows"][0]["adv_label"] == 19 and doc["attack_rows"][0]["baseline_label"] == 19
        assert doc["attack_rows"][0]["defense"]["votes"][0]["label"] == 19
        assert doc["attack_rows"][0]["defense"]["warnings"] == ["TIE_BROKEN"]
        # With no names at all, every label reads class_<n>.
        assert b"class_0,class_0" in emit_report(ExperimentReport(class_names=[], attack_rows=[attack_row(0)]), "csv")


# ---------------------------------------------------------------------------
# Adversarial-training baseline


class TestBaselineTraining:
    def test_darkening_one_reproduces_clean_training(self):
        ds = synth_dataset(SynthConfig(per_class=2, test_per_class=0, side=16, seed=0))
        tcfg = TrainConfig(epochs=1, seed=0)
        clean = train(ds, tcfg, TINY_MODEL)
        aug = train_adversarial_baseline(
            ds, AttackConfig(darkening=1.0), tcfg, TINY_MODEL
        )
        for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_w", "fc_b"):
            assert np.array_equal(getattr(clean, name), getattr(aug, name)), name

    def test_real_darkening_changes_weights(self):
        ds = synth_dataset(SynthConfig(per_class=2, test_per_class=0, side=16, seed=0))
        tcfg = TrainConfig(epochs=1, seed=0)
        clean = train(ds, tcfg, TINY_MODEL)
        aug = train_adversarial_baseline(
            ds, AttackConfig(darkening=0.43), tcfg, TINY_MODEL
        )
        assert any(
            not np.array_equal(getattr(clean, n), getattr(aug, n))
            for n in ("conv1_w", "fc_w")
        )


# ---------------------------------------------------------------------------
# Defense sweep plumbing


class TestDefenseSweep:
    def test_missing_archive(self, tmp_path):
        with pytest.raises(ManifestMissing):
            run_defense_sweep(
                zeroed(TINY_MODEL), [], LocalArchive(tmp_path), coords=[], class_names=list(CLASS_NAMES)
            )

    def test_single_row_wiring(self, tmp_path, rng):
        coords = make_history_archive([5], tmp_path, side=32, renders_per_sign=3, seed=2)
        adv = render_sign(5, 32, rng)
        rows = [
            attack_row(0, success=True, true_label=5, clean_label=5,
                       adversarial_image=adv),
            attack_row(1, success=True, true_label=5, clean_label=5,
                       adversarial_image=None),  # skipped: image not carried
        ]
        before = [dataclasses.replace(r) for r in rows]
        weights = zeroed(ModelConfig(input_side=16, channels=(4, 4, 4), num_classes=16))
        report = run_defense_sweep(
            weights, rows, LocalArchive(tmp_path), coords=coords, baseline=weights,
            class_names=list(CLASS_NAMES),
        )
        assert len(report.attack_rows) == 2
        row, skipped = report.attack_rows
        assert row.image_id == 0 and row.true_label == 5
        assert row.success
        assert skipped.defense is None and skipped.baseline_label is None
        d = row.defense
        assert len(d.votes) == 4
        assert d.votes[0].source == "current" and d.votes[0].capture_date is None
        assert all(v.source == "archive" for v in d.votes[1:])
        assert [v.capture_date for v in d.votes[1:]] == [
            date(2020, 11, 21), date(2019, 7, 3), date(2016, 10, 12)
        ]
        # Zero weights vote class 0 everywhere: wiring, not accuracy.
        assert d.voted_label == 0 and row.baseline_label == 0
        # One row per image: its attack columns, and the defense columns
        # where it was defended. The rows passed in are left as they were.
        assert rows == before and all(r.defense is None and r.baseline_label is None for r in rows)
        assert [dataclasses.replace(r, defense=None, baseline_label=None) for r in report.attack_rows] == rows
        lines = emit_report(report, "csv").decode().splitlines()[3:]
        table = list(csv.DictReader(lines))
        assert [(t["clean"], t["iterations"], t["attack_success"]) for t in table] == [
            ("curve_left", "3", "yes"), ("curve_left", "3", "yes")
        ]
        assert table[0]["voted"] == "stop" and table[0]["no_defense_ok"] == "no"  # adv_label 1 != true 5
        assert (table[0]["baseline"], table[0]["baseline_ok"], table[0]["defense_ok"]) == ("stop", "no", "no")
        assert table[0]["voters"].startswith("current::stop:") and "|archive:2020-11-21:stop:" in table[0]["voters"]
        defense_columns = harness._CSV_HEADER[harness._CSV_HEADER.index("no_defense_ok"):]
        assert len(defense_columns) == 9 and all(table[1][c] == "" for c in defense_columns)
        # report.json holds the Verdict: the current frame's date is null.
        votes = json.loads(emit_report(report, "json"))["attack_rows"][0]["defense"]["votes"]
        assert [v["capture_date"] for v in votes] == [None, "2020-11-21", "2019-07-03", "2016-10-12"]

    def test_manifest_read_once_per_sweep(self, tmp_path, rng, monkeypatch):
        labels = [5, 2, 9]
        coords = make_history_archive(labels, tmp_path, side=32, renders_per_sign=3, seed=2)
        rows = [
            attack_row(i, success=True, true_label=label, clean_label=label,
                       adversarial_image=render_sign(label, 32, rng))
            for i, label in enumerate(labels)
        ]
        loads, seen = [], []
        real_load, real_defend = history.load_manifest, harness.defend

        def counting_load(root):
            loads.append(root)
            return real_load(root)

        def spy_defend(image, records, weights, policy):
            seen.append(records)
            return real_defend(image, records, weights, policy)

        monkeypatch.setattr(history, "load_manifest", counting_load)
        monkeypatch.setattr(harness, "defend", spy_defend)
        report = run_defense_sweep(
            zeroed(TINY_MODEL), rows, LocalArchive(tmp_path), coords=coords, class_names=list(CLASS_NAMES)
        )
        assert len(report.attack_rows) == len(labels)
        assert all(r.defense is not None for r in report.attack_rows)
        assert len(loads) == 1
        for (lat, lon, heading), records in zip(coords, seen):
            query = HistoryQuery(location=(lat, lon), heading=heading, max_records=3, before=QUERY_DATE)
            assert len(records) == 3
            assert records == query_archive(tmp_path, query)

    @pytest.mark.parametrize("match", [MatchPolicy(), MatchPolicy(radius_m=200.0)], ids=["default", "radius-200"])
    def test_remote_history_writes_the_local_report(self, tmp_path, rng, match):
        # The same sweep against a fixture server over the archive writes
        # the same report.csv bytes, but for each voter's source. A 200 m
        # radius reaches the neighbouring poles (111 m apart), so the
        # server's and the client's policy both take part.
        labels = [5, 2, 9, 0, 13]
        coords = make_history_archive(labels, tmp_path, side=32, renders_per_sign=3, seed=2)
        rows = [
            attack_row(i, success=True, true_label=label, clean_label=label,
                       adversarial_image=render_sign(label, 32, rng))
            for i, label in enumerate(labels)
        ]
        weights = init_weights(TINY_MODEL, seed=1)
        kw = dict(coords=coords, baseline=zeroed(TINY_MODEL), class_names=list(CLASS_NAMES))
        local = emit_report(run_defense_sweep(weights, rows, LocalArchive(tmp_path, match), **kw), "csv")
        with HistoryFixtureServer(tmp_path, policy=match) as server:
            client = RemoteHistoryClient(server.url, policy=match)
            remote = emit_report(run_defense_sweep(weights, rows, client, **kw), "csv")
            client.close()
            assert server.stats()["history"] == len(labels)
        assert remote.count(b"remote:") == local.count(b"archive:") == 3 * len(labels)
        assert remote.replace(b"remote:", b"archive:") == local


TINY_STAGES = {
    "synth": SynthConfig(per_class=1, test_per_class=1, side=16, seed=0),
    "train": TrainConfig(epochs=1, seed=0),
    "model": TINY_MODEL,
    "attack": AttackConfig(swarm=2, iterations=1, seed=0),
}


# One value for each MaskParams and MatchPolicy field, each off its default.
MASK_AND_MATCH_KEYS = {
    "mask.sigma": 1.1,
    "mask.blur_radius": 3,
    "mask.low": 40.0,
    "mask.high": 120.0,
    "mask.dilate_k": 2,
    "mask.close_k": 3,
    "mask.min_area_frac": 0.02,
    "match.radius_m": 30.0,
    "match.heading_tol_deg": 40.0,
}


@pytest.fixture(scope="module")
def sweep_reads(tmp_path_factory):
    """{stage: [config]}: the MaskParams each generate_mask call and the
    MatchPolicy each filter_entries call received in a tiny sweep with every
    MASK_AND_MATCH_KEYS key set. Training is stubbed with a model that always
    answers label 0, so the label-0 test image is attacked and defended."""
    stages = dict(TINY_STAGES)
    for key, value in MASK_AND_MATCH_KEYS.items():
        stage, _, name = key.partition(".")
        stages[stage] = dataclasses.replace(stages.get(stage, harness.STAGES[stage]()), **{name: value})
    seen = {"mask": [], "match": []}
    filter_entries = history.filter_entries

    def fake_train(ds, train_config, model_config):
        weights = init_weights(model_config)
        weights.fc_b[0] = 100.0
        return weights

    def spy_mask(img, params=MaskParams()):
        seen["mask"].append(params)
        return BinaryMask.full(img.width, img.height)

    def spy_filter(entries, query, policy):
        seen["match"].append(policy)
        return filter_entries(entries, query, policy)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "train", fake_train)
        mp.setattr(harness, "generate_mask", spy_mask)
        mp.setattr(history, "filter_entries", spy_filter)
        run_full_sweep(tmp_path_factory.mktemp("keys"), stages, max_images=1)
    return seen


def test_mask_and_match_table_lists_every_field():
    fields = [f"{stage}.{f.name}" for stage in ("mask", "match") for f in dataclasses.fields(harness.STAGES[stage])]
    assert sorted(MASK_AND_MATCH_KEYS) == sorted(fields)


@pytest.mark.parametrize("key", list(MASK_AND_MATCH_KEYS))
def test_mask_and_match_keys_reach_the_sweep(sweep_reads, key):
    stage, _, name = key.partition(".")
    value = MASK_AND_MATCH_KEYS[key]
    assert getattr(harness.STAGES[stage](), name) != value
    assert len(sweep_reads[stage]) >= 1
    assert [getattr(config, name) for config in sweep_reads[stage]] == [value] * len(sweep_reads[stage])


def test_full_sweep_times_every_stage(tmp_path):
    run_full_sweep(tmp_path, TINY_STAGES, max_images=1)
    meta = json.loads((tmp_path / "report.json").read_text())["meta"]
    stages = ("synth", "train", "baseline", "evaluate", "attack", "archive", "defense")
    assert all(meta[f"{stage}_seconds"] >= 0.0 for stage in stages)
    # The two trainings may overlap; every other stage runs after the one before.
    serial = ("synth", "evaluate", "attack", "archive", "defense")
    floor = sum(meta[f"{stage}_seconds"] for stage in serial) + max(meta["train_seconds"], meta["baseline_seconds"])
    assert meta["sweep_seconds"] >= floor - 0.005  # each figure is rounded to 1 ms


# ---------------------------------------------------------------------------
# CLI


# Required arguments of each command that has stage flags.
CLI_ARGV = {
    "train": ["train"],
    "mask": ["mask", "x.png"],
    "attack": ["attack", "--model", "m.csw", "--image", "x.png", "--label", "stop"],
    "defend": ["defend", "--model", "m.csw", "--image", "x.png", "--history", "h",
               "--lat", "0", "--lon", "0", "--heading", "0"],
}
FLAG_KEYS = [
    ("train", "--epochs", "train.epochs", "3"),
    ("mask", "--low", "mask.low", "40"),
    ("mask", "--high", "mask.high", "120"),
    ("mask", "--sigma", "mask.sigma", "1.2"),
    ("mask", "--min-area", "mask.min_area_frac", "0.02"),
    ("attack", "--swarm", "attack.swarm", "6"),
    ("attack", "--iters", "attack.iterations", "4"),
    ("attack", "--darkening", "attack.darkening", "0.5"),
    ("attack", "--k", "attack.vertices", "4"),
    ("defend", "--min-history", "vote.min_history", "5"),
]


@pytest.fixture(scope="class")
def cli_workspace(tmp_path_factory):
    """Artifacts shared by the CLI smoke tests: config, dataset, weights."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(
        "synth.per_class = 1\n"
        "synth.test_per_class = 1\n"
        "synth.side = 16\n"
        "train.epochs = 1\n"
        "attack.swarm = 2\n"
        "attack.iterations = 2\n"
        "model.channels = 4,4,4\n"
    )
    out = root / "out"
    rc = cli.main(["--seed", "1", "--config", str(cfg), "--out", str(out), "synth"])
    assert rc == 0
    rc = cli.main(
        ["--seed", "1", "--config", str(cfg), "--out", str(out / "weights.csw"),
         "train", "--data", str(out / "dataset")]
    )
    assert rc == 0
    return root, cfg, out


@pytest.mark.usefixtures("cli_workspace")
class TestCli:
    def test_parse_label(self):
        assert cli._parse_label("stop") == 0
        assert cli._parse_label("railroad") == 15
        assert cli._parse_label("7") == 7
        for text in ("not_a_sign", "16", "-1"):
            with pytest.raises(ValueError):
                cli._parse_label(text)

    def test_synth_wrote_loadable_dataset(self, cli_workspace):
        _, _, out = cli_workspace
        ds = load_dataset(out / "dataset")
        assert len(ds.items) == 32
        assert ds.class_names == CLASS_NAMES

    @pytest.mark.parametrize("where", ["dotdot", "absolute", "symlink"])
    def test_dataset_path_outside_the_root_is_malformed(self, tmp_path, where):
        # The image outside the root is valid: only its place makes the row bad.
        root = tmp_path / "data"
        root.mkdir()
        outside = tmp_path / "outside.png"
        save_image(flat_image(7, 16, 16), str(outside))
        (root / "link.png").symlink_to(outside)
        path = {"dotdot": "../outside.png", "absolute": str(outside), "symlink": "link.png"}[where]
        manifest = {"classes": ["stop"], "items": [{"path": path, "label": 0, "split": "train"}]}
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetMalformed, match="resolves outside"):
            load_dataset(root)
        manifest["items"][0]["path"] = "inside.png"
        (root / "manifest.json").write_text(json.dumps(manifest))
        save_image(flat_image(200, 16, 16), str(root / "inside.png"))
        assert load_dataset(root).items[0][0].pixels[0, 0, 0] == 200

    def test_train_wrote_weights_file(self, cli_workspace):
        _, _, out = cli_workspace
        data = (out / "weights.csw").read_bytes()
        assert data[:4] == b"CSW1"

    def test_mask_blank_image_exits_2(self, cli_workspace, tmp_path):
        root, cfg, out = cli_workspace
        blank = tmp_path / "blank.png"
        save_image(flat_image(128, 32, 32), str(blank))
        rc = cli.main(["--out", str(tmp_path / "m"), "mask", str(blank)])
        assert rc == 2

    @pytest.mark.parametrize("name", ["mask.png", "Result.PNG"])
    def test_mask_sign_image_succeeds(self, cli_workspace, tmp_path, rng, name):
        # An --out with an image extension, in either case, names the file.
        sign = tmp_path / "sign.png"
        save_image(render_sign(0, 64, rng), str(sign))
        dest = tmp_path / name
        rc = cli.main(["--out", str(dest), "mask", str(sign)])
        assert rc == 0 and dest.is_file()
        mask_img = load_image(str(dest))
        assert (mask_img.width, mask_img.height) == (64, 64)

    def test_train_out_in_upper_case_names_the_weights_file(self, cli_workspace, tmp_path):
        _, cfg, out = cli_workspace
        dest = tmp_path / "W.CSW"
        rc = cli.main(["--config", str(cfg), "--out", str(dest), "train", "--data", str(out / "dataset")])
        assert rc == 0 and dest.read_bytes()[:4] == b"CSW1"

    def test_attack_runs_and_writes_image(self, cli_workspace, tmp_path, rng):
        root, cfg, out = cli_workspace
        sign = tmp_path / "sign.png"
        save_image(render_sign(0, 16, rng), str(sign))
        dest = tmp_path / "adv.png"
        rc = cli.main(
            ["--seed", "1", "--config", str(cfg), "--out", str(dest), "attack",
             "--model", str(out / "weights.csw"), "--image", str(sign),
             "--label", "stop", "--swarm", "2", "--iters", "2"]
        )
        assert rc == 0
        adv = load_image(str(dest))
        assert (adv.width, adv.height) == (16, 16)

    def test_attack_on_a_frame_without_contour_uses_the_full_frame(self, cli_workspace, tmp_path, capsys):
        _, _, out = cli_workspace
        flat = tmp_path / "flat.png"
        save_image(flat_image(128, 16, 16), str(flat))
        rc = cli.main(
            ["--out", str(tmp_path / "adv.png"), "attack", "--model", str(out / "weights.csw"),
             "--image", str(flat), "--label", "stop", "--swarm", "2", "--iters", "1"]
        )
        assert rc == 0
        assert "] (full-frame fallback: no contour found)\n" in capsys.readouterr().out

    def test_attack_reads_mask_keys(self, cli_workspace, tmp_path, rng, monkeypatch):
        _, _, out = cli_workspace
        sign = tmp_path / "sign.png"
        save_image(render_sign(0, 16, rng), str(sign))
        cfg = tmp_path / "mask.cfg"
        cfg.write_text("mask.low = 40\nmask.high = 120\n")
        seen = []
        generate_mask = harness.generate_mask
        monkeypatch.setattr(harness, "generate_mask", lambda img, params: seen.append(params) or generate_mask(img, params))
        rc = cli.main(
            ["--config", str(cfg), "--out", str(tmp_path / "adv.png"), "attack",
             "--model", str(out / "weights.csw"), "--image", str(sign),
             "--label", "stop", "--swarm", "2", "--iters", "1"]
        )
        assert rc == 0
        assert [(params.low, params.high) for params in seen] == [(40.0, 120.0)]

    def test_defend_prints_verdict(self, cli_workspace, tmp_path, rng, capsys):
        root, cfg, out = cli_workspace
        archive = tmp_path / "archive"
        coords = make_history_archive([0], archive, side=16, renders_per_sign=3, seed=3)
        current = tmp_path / "current.png"
        save_image(render_sign(0, 16, rng), str(current))
        lat, lon, heading = coords[0]
        rc = cli.main(
            ["--config", str(cfg), "--out", str(tmp_path / "d"), "defend",
             "--model", str(out / "weights.csw"), "--image", str(current),
             "--history", str(archive), "--lat", str(lat), "--lon", str(lon),
             "--heading", str(heading), "--before", "2025-01-01"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "verdict:" in text
        assert "current" in text

    def test_defend_remote_history(self, cli_workspace, tmp_path, rng, capsys):
        root, cfg, out = cli_workspace
        archive = tmp_path / "archive"
        coords = make_history_archive([0], archive, side=16, renders_per_sign=3, seed=3)
        current = tmp_path / "current.png"
        save_image(render_sign(0, 16, rng), str(current))
        lat, lon, heading = coords[0]
        dest = tmp_path / "d"
        with HistoryFixtureServer(archive) as server:
            rc = cli.main(
                ["--config", str(cfg), "--out", str(dest), "defend",
                 "--model", str(out / "weights.csw"), "--image", str(current),
                 "--history", server.url, "--lat", str(lat), "--lon", str(lon),
                 "--heading", str(heading), "--before", "2025-01-01"]
            )
        assert rc == 0
        assert "verdict:" in capsys.readouterr().out
        assert len(os.listdir(dest / "cache" / "queries")) == 1

    @pytest.mark.parametrize(
        "line",
        ["atack.swarm = 6", "seed = 3", "attack.swarm 6", "attack.swarm = abc", "mask.low.x = 5",
         pytest.param(None, id="missing-file")],
    )
    def test_unknown_config_namespace_rejected(self, tmp_path, capsys, line):
        # Refused before the mask command reaches its (missing) image.
        cfg = tmp_path / "typo.cfg"
        if line is not None:
            cfg.write_text(line + "\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "mask", str(tmp_path / "none.png")])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and err.startswith("bad input: ")
        assert "none.png" not in err

    @pytest.mark.parametrize(
        "argv, values",
        [([*CLI_ARGV[command], flag, value], {key: value}) for command, flag, key, value in FLAG_KEYS]
        + [(["--seed", "5", *CLI_ARGV[command]], {f"{stage}.seed": "5" for stage in ("synth", "train", "attack")})
           for command in CLI_ARGV],
        ids=[flag for _, flag, _, _ in FLAG_KEYS] + [f"--seed-{command}" for command in CLI_ARGV],
    )
    def test_flag_is_its_config_key(self, argv, values):
        configs = cli._configs(cli._build_parser().parse_args(argv))
        assert configs == {stage: apply_overrides(config(), values, stage) for stage, config in harness.STAGES.items()}
        assert configs != {stage: config() for stage, config in harness.STAGES.items()}

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("attack.swarm = 9\nattack.seed = 4\nattack.iterations = 7\n")
        argv = ["--seed", "5", "--config", str(cfg), *CLI_ARGV["attack"], "--swarm", "6"]
        acfg = cli._configs(cli._build_parser().parse_args(argv))["attack"]
        assert (acfg.swarm, acfg.seed, acfg.iterations, acfg.vertices) == (6, 5, 7, AttackConfig().vertices)

    def test_attack_names_classes_past_the_known_names(self, tmp_path, rng, capsys):
        weights = init_weights(ModelConfig(input_side=16, channels=(4, 4, 4), num_classes=20), seed=0)
        weights.fc_b[19] = 100.0
        model = tmp_path / "twenty.csw"
        model.write_bytes(save_weights(weights))
        sign = tmp_path / "sign.png"
        save_image(render_sign(0, 16, rng), str(sign))
        rc = cli.main(
            ["--out", str(tmp_path / "adv.png"), "attack", "--model", str(model), "--image", str(sign),
             "--label", "stop", "--swarm", "2", "--iters", "1"]
        )
        assert rc == 0
        assert "class_19" in capsys.readouterr().out

    def test_sweep_names_classes_past_the_corpus_names(self, tmp_path):
        # 20 model outputs against 16 class names; at this seed an attack
        # flips a sign to one of the four unnamed labels.
        cfg = tmp_path / "twenty.cfg"
        cfg.write_text(
            "synth.per_class = 1\n"
            "synth.test_per_class = 3\n"
            "synth.side = 16\n"
            "train.epochs = 1\n"
            "attack.swarm = 6\n"
            "attack.iterations = 4\n"
            "model.channels = 4,4,4\n"
            "model.num_classes = 20\n"
        )
        out = tmp_path / "o"
        assert cli.main(["--seed", "11", "--config", str(cfg), "--out", str(out), "sweep"]) == 0
        assert "class_" in (out / "report.csv").read_text()

    def test_sweep_without_test_items_trains_nothing(self, cli_workspace, tmp_path, monkeypatch, capsys):
        _, tiny_cfg, _ = cli_workspace
        cfg = tmp_path / "no_test.cfg"
        cfg.write_text(tiny_cfg.read_text() + "synth.test_per_class = 0\n")
        calls = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: calls.append(args))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
        assert (rc, calls) == (2, [])
        assert capsys.readouterr().err == "bad input: no test items\n"
        # A shell sees the same one line: the refusal comes before the synth stage.
        assert run_cli("--config", cfg, "--out", tmp_path / "o", "sweep") == (2, "", "bad input: no test items\n")
        assert not (tmp_path / "o").exists()

    def test_sweep_with_a_bad_attack_setting_trains_nothing(self, cli_workspace, tmp_path, monkeypatch, capsys):
        _, tiny_cfg, _ = cli_workspace
        cfg = tmp_path / "swarm_0.cfg"
        cfg.write_text(tiny_cfg.read_text() + "attack.swarm = 0\n")
        calls = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: calls.append(args))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
        assert (rc, calls) == (2, [])
        assert capsys.readouterr().err == "bad input: swarm and iterations must be positive, got 0, 2\n"

    @pytest.mark.parametrize(
        "command, progress",
        [(["train"], ""), (["sweep", "--max-images", "1"], "rendering corpus: 1 train + 1 test per class\n")],
        ids=["train", "sweep"],
    )
    def test_diverging_training_exits_2_and_writes_no_weights(self, cli_workspace, tmp_path, command, progress):
        # At this rate the first update leaves weights near 1e30, whose
        # forward pass overflows float32. The sweep refuses it after its
        # synth stage, so the refusal is the last of two stderr lines.
        _, tiny_cfg, _ = cli_workspace
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(tiny_cfg.read_text() + "train.learning_rate = 1e30\n")
        rc, _, err = run_cli("--config", cfg, "--out", tmp_path / "o", *command)
        assert (rc, err) == (2, progress + "bad input: training left weights with a non-finite loss\n")
        assert list(tmp_path.rglob("*.csw")) == []

    # Every field of every stage config, each to be set to -1 and to 0.
    STAGE_KEYS = [f"{stage}.{f.name}" for stage, config in harness.STAGES.items() for f in dataclasses.fields(config)]
    # Attack options the code does not have: a config file that sets one is refused, not ignored.
    REMOVED_KEYS = ["attack.fitness", "attack.early_stop"]
    # The settings among those that a stage config refuses as it is built.
    REFUSED_SETTINGS = {
        *(f"{key} = {value}" for key in REMOVED_KEYS for value in (-1, 0)),
        "synth.seed = -1", "train.seed = -1", "attack.seed = -1", "train.epochs = -1",
        "model.input_side = -1", "model.input_side = 0", "model.num_classes = -1", "model.num_classes = 0",
        "match.radius_m = -1", "match.heading_tol_deg = -1",
        "vote.change_threshold = -1", "vote.change_threshold = 0",
        *(f"mask.{name} = {value}" for name in ("sigma", "blur_radius", "low", "high", "dilate_k", "close_k")
          for value in (-1, 0)),
    }

    @pytest.mark.parametrize("value", [-1, 0])
    @pytest.mark.parametrize("key", STAGE_KEYS + REMOVED_KEYS)
    def test_every_stage_setting_is_refused_before_training_or_run(
        self, cli_workspace, tmp_path, monkeypatch, capsys, key, value
    ):
        # A sweep either runs, or exits 2 with one stderr line before any
        # training; it never ends in a traceback.
        _, tiny_cfg, _ = cli_workspace
        setting = f"{key} = {value}"
        cfg = tmp_path / "one.cfg"
        cfg.write_text(tiny_cfg.read_text() + setting + "\n")
        calls, real_train = [], harness.train
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: calls.append(args) or real_train(*args, **kwargs))
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep", "--max-images", "1"])
        err = capsys.readouterr().err
        if setting in self.REFUSED_SETTINGS:
            assert rc == 2
        assert rc in (0, 2)
        if rc == 2:
            assert len(err.splitlines()) == 1 and err.startswith("bad input: ") and calls == []

    BAD_INPUTS = {
        "mask-size": ["attack", "--mask", "{small_mask}"],
        "empty-mask": ["attack", "--mask", "{black_mask}"],
        "k-2": ["attack", "--k", "2"],
        "darkening-0": ["attack", "--darkening", "0"],
        "swarm-not-int": ["attack", "--swarm", "abc"],
        "no-manifest": ["defend", "--history", "{empty_dir}"],
        "bad-manifest": ["defend", "--history", "{bad_archive}"],
        "manifest-not-utf8": ["defend", "--history", "{not_utf8_archive}"],
        "manifest-is-dir": ["defend", "--history", "{dir_manifest_archive}"],
        "unreachable": ["defend", "--history", "http://127.0.0.1:1"],
        "endpoint-bad-port": ["defend", "--history", "http://127.0.0.1:abc"],
        "attack-missing-image": ["attack", "--image", "{missing}"],
        "attack-unreadable-image": ["attack", "--image", "{not_image}"],
        "attack-missing-mask": ["attack", "--mask", "{missing}"],
        "defend-missing-image": ["defend", "--history", "{empty_dir}", "--image", "{missing}"],
        "mask-missing-image": ["mask", "{missing}"],
        "mask-unreadable-image": ["mask", "{not_image}"],
        "label-name": ["attack", "--label", "bogus"],
        "label-16": ["attack", "--label", "16"],
        "label-negative": ["attack", "--label", "-1"],
        "attack-missing-model": ["attack", "--model", "{missing_model}"],
        "attack-corrupt-model": ["attack", "--model", "{corrupt_model}"],
        "defend-missing-model": ["defend", "--history", "{empty_dir}", "--model", "{missing_model}"],
        "defend-corrupt-model": ["defend", "--history", "{empty_dir}", "--model", "{corrupt_model}"],
        "mask-thresholds": ["mask", "{sign}", "--low", "5", "--high", "1"],
        "mask-sigma": ["mask", "{sign}", "--sigma", "-1"],
        "deep-manifest": ["defend", "--history", "{deep_archive}"],
        "rank0-model": ["attack", "--model", "{rank0_model}"],
        "train-no-manifest": ["train", "--data", "{empty_dir}"],
        "train-undecodable-manifest": ["train", "--data", "{bad_archive}"],
        "train-missing-keys": ["train", "--data", "{data_no_items_key}"],
        "train-unreadable-image": ["train", "--data", "{data_bad_image}"],
        "train-no-items": ["train", "--data", "{data_empty}"],
        "train-only-test-items": ["train", "--data", "{data_only_test}"],
        "train-17-classes": ["train", "--data", "{data_17_classes}"],
        "train-12px-frames": ["train", "--data", "{data_12px}"],
        "train-path-outside-root": ["train", "--data", "{data_outside}"],
        "mask-blur-radius-0": ["--config", "{cfg_blur_radius_0}", "mask", "{sign}"],
        "mask-dilate-k-0": ["--config", "{cfg_dilate_k_0}", "mask", "{sign}"],
        "mask-close-k-0": ["--config", "{cfg_close_k_0}", "mask", "{sign}"],
        "sweep-side-20": ["--config", "{cfg_sweep_side_20}", "sweep", "--max-images", "1"],
        "sweep-10-classes": ["--config", "{cfg_sweep_10_classes}", "sweep", "--max-images", "1"],
        "sweep-no-test-items": ["--config", "{cfg_sweep_no_test_items}", "sweep", "--max-images", "1"],
        "sweep-radius-nan": ["--config", "{cfg_sweep_radius_nan}", "sweep", "--max-images", "1"],
        "sweep-batch-size-0": ["--config", "{cfg_sweep_batch_size_0}", "sweep", "--max-images", "1"],
        "sweep-min-history-0": ["--config", "{cfg_sweep_min_history_0}", "sweep", "--max-images", "1"],
        "sweep-one-channel-count": ["--config", "{cfg_sweep_one_channel_count}", "sweep", "--max-images", "1"],
        "sweep-vertices-2": ["--config", "{cfg_sweep_vertices_2}", "sweep", "--max-images", "1"],
        "sweep-max-images-negative": ["--config", "{cfg_tiny}", "sweep", "--max-images", "-1"],
    }
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_is_one_stderr_line_and_exit_2(self, cli_workspace, tmp_path, rng, capsys, case):
        _, tiny_cfg, out = cli_workspace
        sign = tmp_path / "sign.png"
        save_image(render_sign(0, 64, rng), str(sign))
        save_image(flat_image(255, 32, 32), str(tmp_path / "small_mask.png"))
        save_image(flat_image(0, 64, 64), str(tmp_path / "black_mask.png"))
        (tmp_path / "empty").mkdir()
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "manifest.json").write_text("not json")
        (tmp_path / "not_utf8").mkdir()
        (tmp_path / "not_utf8" / "manifest.json").write_bytes(b'[{"path": "\xff.png"}]')
        (tmp_path / "dir_manifest" / "manifest.json").mkdir(parents=True)
        (tmp_path / "deep").mkdir()
        (tmp_path / "deep" / "manifest.json").write_text("[" * 100000 + "]" * 100000)
        (tmp_path / "rank0.csw").write_bytes(csw1_container([()] * 8))
        (tmp_path / "not_image.png").write_bytes(b"not an image")
        seventeen = [f"class{k}" for k in range(17)]
        for name, manifest in (
            ("data_no_items_key", {"classes": ["stop"]}),
            ("data_bad_image", {"classes": ["stop"], "items": [{"path": "x.png", "label": 0, "split": "train"}]}),
            ("data_empty", {"classes": ["stop"], "items": []}),
            ("data_only_test", {"classes": ["stop"], "items": [{"path": "x.png", "label": 0, "split": "test"}]}),
            ("data_17_classes", {"classes": seventeen, "items": [{"path": "x.png", "label": k, "split": "train"} for k in range(17)]}),
            ("data_12px", {"classes": ["stop"], "items": [{"path": "x.png", "label": 0, "split": "train"}]}),
            ("data_outside", {"classes": ["stop"], "items": [{"path": "../sign.png", "label": 0, "split": "train"}]}),
        ):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "data_bad_image" / "x.png").write_bytes(b"not an image")
        for name in ("data_only_test", "data_17_classes"):
            save_image(flat_image(128, 16, 16), str(tmp_path / name / "x.png"))
        save_image(flat_image(128, 12, 12), str(tmp_path / "data_12px" / "x.png"))
        for key in ("blur_radius", "dilate_k", "close_k"):
            (tmp_path / f"{key}_0.cfg").write_text(f"mask.{key} = 0\n")
        for name, line in (
            ("sweep_side_20", "synth.side = 20"),
            ("sweep_10_classes", "model.num_classes = 10"),
            ("sweep_no_test_items", "synth.test_per_class = 0"),
            ("sweep_radius_nan", "match.radius_m = nan"),
            ("sweep_batch_size_0", "train.batch_size = 0"),
            ("sweep_min_history_0", "vote.min_history = 0"),
            ("sweep_one_channel_count", "model.channels = 16"),
            ("sweep_vertices_2", "attack.vertices = 2"),
        ):
            (tmp_path / f"{name}.cfg").write_text(tiny_cfg.read_text() + line + "\n")
        weights = (out / "weights.csw").read_bytes()
        (tmp_path / "corrupt.csw").write_bytes(weights[:-5] + bytes([weights[-5] ^ 1]) + weights[-4:])
        paths = dict(
            sign=sign,
            small_mask=tmp_path / "small_mask.png",
            black_mask=tmp_path / "black_mask.png",
            empty_dir=tmp_path / "empty",
            bad_archive=tmp_path / "bad",
            not_utf8_archive=tmp_path / "not_utf8",
            dir_manifest_archive=tmp_path / "dir_manifest",
            missing=tmp_path / "missing.png",
            not_image=tmp_path / "not_image.png",
            missing_model=tmp_path / "missing.csw",
            corrupt_model=tmp_path / "corrupt.csw",
            deep_archive=tmp_path / "deep",
            rank0_model=tmp_path / "rank0.csw",
            data_no_items_key=tmp_path / "data_no_items_key",
            data_bad_image=tmp_path / "data_bad_image",
            data_empty=tmp_path / "data_empty",
            data_only_test=tmp_path / "data_only_test",
            data_17_classes=tmp_path / "data_17_classes",
            data_12px=tmp_path / "data_12px",
            data_outside=tmp_path / "data_outside",
            cfg_blur_radius_0=tmp_path / "blur_radius_0.cfg",
            cfg_dilate_k_0=tmp_path / "dilate_k_0.cfg",
            cfg_close_k_0=tmp_path / "close_k_0.cfg",
            cfg_sweep_side_20=tmp_path / "sweep_side_20.cfg",
            cfg_sweep_10_classes=tmp_path / "sweep_10_classes.cfg",
            cfg_sweep_no_test_items=tmp_path / "sweep_no_test_items.cfg",
            cfg_sweep_radius_nan=tmp_path / "sweep_radius_nan.cfg",
            cfg_sweep_batch_size_0=tmp_path / "sweep_batch_size_0.cfg",
            cfg_sweep_min_history_0=tmp_path / "sweep_min_history_0.cfg",
            cfg_sweep_one_channel_count=tmp_path / "sweep_one_channel_count.cfg",
            cfg_sweep_vertices_2=tmp_path / "sweep_vertices_2.cfg",
            cfg_tiny=tiny_cfg,
        )
        args = [arg.format(**paths) for arg in self.BAD_INPUTS[case]]
        options = []  # options before the command
        while args[0].startswith("--"):
            options, args = options + args[:2], args[2:]
        command, *extra = args
        if command in ("mask", "train", "sweep"):
            argv = [*options, command, *extra]
        else:
            # A later --model, --image or --label in extra overrides these.
            where = ["--label", "stop"] if command == "attack" else ["--lat", "40", "--lon", "-74", "--heading", "90"]
            argv = [*options, command, "--model", str(out / "weights.csw"), "--image", str(sign), *where, *extra]
        rc = cli.main(["--out", str(tmp_path / "o"), *argv])
        *progress, refusal = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert progress == []
        assert refusal.startswith(("no attack: ", "no history: ", "bad input: "))
        if command == "sweep":
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("port", ["-1", "70000", "busy", "no-manifest"])
    def test_serve_fixture_bad_input_is_one_stderr_line(self, tmp_path, capsys, port):
        root = tmp_path / "archive"
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            if port == "no-manifest":
                root.mkdir()
                port, expected = "0", f"bad input: no manifest.json under {root}\n"
            else:
                make_history_archive([0], root, side=16, renders_per_sign=1, seed=0)
                port = str(taken.getsockname()[1]) if port == "busy" else port
                expected = f"bad input: cannot serve on 127.0.0.1:{port}: "
            rc = cli.main(["serve-fixture", "--root", str(root), "--port", port])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and err.startswith(expected)

    @pytest.mark.parametrize("flag, value", [("--heading", "nan"), ("--heading", "-inf"), ("--before", "2025-13-01")])
    def test_bad_history_query_is_bad_input(self, cli_workspace, tmp_path, rng, capsys, flag, value):
        # Refused before the history is read, so the empty archive is never reached.
        _, _, out = cli_workspace
        sign = tmp_path / "sign.png"
        save_image(render_sign(0, 64, rng), str(sign))
        (tmp_path / "empty").mkdir()
        argv = ["defend", "--model", str(out / "weights.csw"), "--image", str(sign), "--history", str(tmp_path / "empty"),
                "--lat", "40", "--lon", "-74", "--heading", "90", f"{flag}={value}"]
        rc = cli.main(["--out", str(tmp_path / "o"), *argv])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and err.startswith("bad input: bad history query: ")
