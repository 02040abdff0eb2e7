"""Experiment orchestration: attack sweeps, defense sweeps, baselines, reports.

The sweep protocol: train on the synthetic corpus, attack every correctly
classified test image, then defend each attacked frame with archived
history and majority voting. Rows are accumulated into an
ExperimentReport whose aggregates are always recomputed from the rows,
never cached. Per-image attack rows are independent of each other; they
run serially here but nothing in a row depends on its neighbours.
"""

from __future__ import annotations

import csv as _csv
import dataclasses
import io
import json
import logging
import os
import time
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .attack import AttackConfig, ShadowSpec, apply_shadow, run_attack
from .cnn import (
    Classifier,
    ModelConfig,
    ModelWeights,
    TrainConfig,
    evaluate,
    predict_batch,
    save_weights,
    train,
)
from .dataset import LabeledImageSet
from .defense import DefenseWarning, VotePolicy, defend
from .history import HistoryQuery, MatchPolicy, query_archive
from .masks import BinaryMask, NoContourFound, generate_mask
from .raster import RasterImage
from .synth import SynthConfig, make_history_archive, synth_dataset

log = logging.getLogger(__name__)

QUERY_DATE = date(2025, 1, 1)  # "now" for archive queries; history predates it


class MissingArchive(FileNotFoundError):
    pass


# ---------------------------------------------------------------------------
# Report rows


@dataclass
class AttackRecord:
    image_id: int
    true_label: int
    clean_label: int
    clean_confidence: float
    adv_label: int
    adv_confidence: float
    success: bool
    iterations: int
    mask_note: str = ""
    # Carried for the defense stage; never serialized.
    adversarial_image: RasterImage | None = None
    shadow: ShadowSpec | None = None


@dataclass(frozen=True)
class VoterRow:
    source: str
    capture_date: str  # ISO date or "" for the current frame
    label: int
    confidence: float


@dataclass
class DefenseRecord:
    image_id: int
    true_label: int
    attack_success: bool
    no_defense_label: int
    no_defense_ok: bool
    voted_label: int
    voted_confidence: float
    defense_ok: bool
    suspected_attack: bool
    warnings: tuple[str, ...] = ()
    voters: tuple[VoterRow, ...] = ()
    baseline_label: int | None = None
    baseline_ok: bool | None = None


@dataclass
class ExperimentReport:
    class_names: list[str]
    attack_rows: list[AttackRecord] = field(default_factory=list)
    defense_rows: list[DefenseRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def attack_success_rate(self) -> float | None:
        if not self.attack_rows:
            return None
        return sum(r.success for r in self.attack_rows) / len(self.attack_rows)

    def defense_success_rate(self) -> float | None:
        """Defended-correct over successfully attacked images only."""
        hit = [r for r in self.defense_rows if r.attack_success]
        if not hit:
            return None
        return sum(r.defense_ok for r in hit) / len(hit)

    def baseline_defense_rate(self) -> float | None:
        hit = [r for r in self.defense_rows if r.attack_success and r.baseline_ok is not None]
        if not hit:
            return None
        return sum(bool(r.baseline_ok) for r in hit) / len(hit)


# ---------------------------------------------------------------------------
# Attack sweep


def run_attack_sweep(
    weights: ModelWeights,
    dataset: LabeledImageSet,
    config: AttackConfig = AttackConfig(),
    max_images: int | None = None,
) -> ExperimentReport:
    """Attack every correctly classified test image; one row per attempt.

    Masks come from the edge/contour pipeline; images where no contour
    survives fall back to a full-frame mask and the row says so. The PSO
    seed is re-derived per image so row i is reproducible in isolation.
    """
    clf = Classifier(weights)
    items = dataset.split("test")
    report = ExperimentReport(class_names=list(dataset.class_names))
    attacked = 0
    for image_id, (img, label) in enumerate(items):
        if max_images is not None and attacked >= max_images:
            break
        clean = clf([img])[0]
        if clean.label != label:
            continue
        attacked += 1
        note = ""
        try:
            mask = generate_mask(img)
        except NoContourFound:
            mask = BinaryMask.full(img.width, img.height)
            note = "full-frame fallback: no contour found"
        per_image = dataclasses.replace(config, seed=config.seed * 100003 + image_id)
        result = run_attack(img, mask, clf, label, per_image)
        report.attack_rows.append(
            AttackRecord(
                image_id=image_id,
                true_label=label,
                clean_label=clean.label,
                clean_confidence=clean.confidence,
                adv_label=result.adversarial_prediction.label,
                adv_confidence=result.adversarial_prediction.confidence,
                success=result.success,
                iterations=result.iterations_used,
                mask_note=note,
                adversarial_image=result.adversarial_image,
                shadow=result.shadow,
            )
        )
        log.info(
            "attack %d/%d: image %d %s -> %s (%s)",
            attacked,
            max_images if max_images is not None else len(items),
            image_id,
            dataset.class_names[label],
            dataset.class_names[result.adversarial_prediction.label],
            "flipped" if result.success else "held",
        )
    return report


# ---------------------------------------------------------------------------
# Adversarial-training baseline


def train_adversarial_baseline(
    dataset: LabeledImageSet,
    attack_config: AttackConfig = AttackConfig(),
    train_config: TrainConfig = TrainConfig(),
    model_config: ModelConfig = ModelConfig(),
    augment_seed: int = 17,
) -> ModelWeights:
    """Train on shadow-augmented data: every training sample gets one
    randomly placed polygon shadow (full-frame mask, same darkening).

    Augmentation randomness is a separate stream from the training seed,
    so darkening 1.0 reproduces the clean-trained weights exactly.
    """
    rng = np.random.default_rng(augment_seed)
    augmented = LabeledImageSet(class_names=list(dataset.class_names))
    for img, label, split in dataset.items:
        if split == "train":
            verts = rng.uniform(0.0, 1.0, size=(attack_config.vertices, 2))
            shadow = ShadowSpec(vertices=verts, darkening=attack_config.darkening)
            img = apply_shadow(img, BinaryMask.full(img.width, img.height), shadow)
        augmented.items.append((img, label, split))
    return train(augmented, train_config, model_config)


# ---------------------------------------------------------------------------
# Defense sweep


def run_defense_sweep(
    weights: ModelWeights,
    attack_rows: list[AttackRecord],
    archive_root,
    coords: list[tuple[float, float, float]],
    baseline: ModelWeights | None = None,
    policy: VotePolicy = VotePolicy(),
    match: MatchPolicy = MatchPolicy(),
    class_names: list[str] | None = None,
) -> ExperimentReport:
    """Defend each attacked frame with archived history of the same sign.

    coords[image_id] gives the (lat, lon, heading) the sign was archived
    under. Produces the three comparison columns per row: undefended
    label, baseline model's label, and the voted label.
    """
    if not os.path.isfile(os.path.join(str(archive_root), "manifest.json")):
        raise MissingArchive(f"no manifest.json under {archive_root}")
    report = ExperimentReport(class_names=list(class_names or []))
    for row in attack_rows:
        if row.adversarial_image is None:
            continue
        lat, lon, heading = coords[row.image_id]
        query = HistoryQuery(
            location=(lat, lon),
            heading=heading,
            max_records=policy.min_history,
            before=QUERY_DATE,
        )
        records = query_archive(archive_root, query, match)
        verdict = defend(row.adversarial_image, records, weights, policy)
        voters = tuple(
            VoterRow(
                source=v.source,
                capture_date=v.capture_date.isoformat() if v.capture_date else "",
                label=v.prediction.label,
                confidence=v.prediction.confidence,
            )
            for v in verdict.votes
        )
        baseline_label = None
        baseline_ok = None
        if baseline is not None:
            bl = predict_batch(baseline, [row.adversarial_image])[0]
            baseline_label = bl.label
            baseline_ok = bl.label == row.true_label
        report.defense_rows.append(
            DefenseRecord(
                image_id=row.image_id,
                true_label=row.true_label,
                attack_success=row.success,
                no_defense_label=row.adv_label,
                no_defense_ok=row.adv_label == row.true_label,
                voted_label=verdict.voted_label,
                voted_confidence=verdict.voted_confidence,
                defense_ok=verdict.voted_label == row.true_label,
                suspected_attack=verdict.suspected_attack,
                warnings=tuple(w.name for w in verdict.warnings),
                voters=voters,
                baseline_label=baseline_label,
                baseline_ok=baseline_ok,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Report emission


def _pct(x: float | None) -> str:
    return "" if x is None else f"{x * 100:.2f}"


def _yesno(x: bool | None) -> str:
    return "" if x is None else ("yes" if x else "no")


_CSV_HEADER = [
    "image_id",
    "true",
    "clean",
    "clean_conf",
    "adv",
    "adv_conf",
    "attack_success",
    "iterations",
    "mask_note",
    "no_defense_ok",
    "baseline",
    "baseline_ok",
    "voted",
    "voted_conf",
    "defense_ok",
    "suspected_attack",
    "warnings",
    "voters",
]


def _merged_rows(report: ExperimentReport):
    """One dict per image id, attack and defense columns joined."""
    defense = {r.image_id: r for r in report.defense_rows}
    ids = sorted({r.image_id for r in report.attack_rows} | set(defense))
    attack = {r.image_id: r for r in report.attack_rows}
    name = lambda i: report.class_names[i] if report.class_names else str(i)  # noqa: E731
    for image_id in ids:
        a = attack.get(image_id)
        d = defense.get(image_id)
        row = {k: "" for k in _CSV_HEADER}
        row["image_id"] = str(image_id)
        if a is not None:
            row.update(
                true=name(a.true_label),
                clean=name(a.clean_label),
                clean_conf=_pct(a.clean_confidence),
                adv=name(a.adv_label),
                adv_conf=_pct(a.adv_confidence),
                attack_success=_yesno(a.success),
                iterations=str(a.iterations),
                mask_note=a.mask_note,
            )
        if d is not None:
            row["true"] = name(d.true_label)
            if a is None:
                row["adv"] = name(d.no_defense_label)
                row["attack_success"] = _yesno(d.attack_success)
            row.update(
                no_defense_ok=_yesno(d.no_defense_ok),
                baseline="" if d.baseline_label is None else name(d.baseline_label),
                baseline_ok=_yesno(d.baseline_ok),
                voted=name(d.voted_label),
                voted_conf=_pct(d.voted_confidence),
                defense_ok=_yesno(d.defense_ok),
                suspected_attack=_yesno(d.suspected_attack),
                warnings="|".join(d.warnings),
                voters="|".join(
                    f"{v.source}:{v.capture_date}:{name(v.label)}:{_pct(v.confidence)}"
                    for v in d.voters
                ),
            )
        yield row


def _emit_csv(report: ExperimentReport) -> bytes:
    buf = io.StringIO()
    buf.write(f"# attack_success_rate={_pct(report.attack_success_rate())}\n")
    buf.write(f"# defense_success_rate={_pct(report.defense_success_rate())}\n")
    buf.write(f"# baseline_defense_rate={_pct(report.baseline_defense_rate())}\n")
    writer = _csv.DictWriter(buf, fieldnames=_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in _merged_rows(report):
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _emit_json(report: ExperimentReport) -> bytes:
    doc = {
        "class_names": report.class_names,
        "attack_rows": [
            {
                "image_id": r.image_id,
                "true_label": r.true_label,
                "clean_label": r.clean_label,
                "clean_confidence": round(r.clean_confidence, 6),
                "adv_label": r.adv_label,
                "adv_confidence": round(r.adv_confidence, 6),
                "success": r.success,
                "iterations": r.iterations,
                "mask_note": r.mask_note,
            }
            for r in sorted(report.attack_rows, key=lambda r: r.image_id)
        ],
        "defense_rows": [
            {
                "image_id": r.image_id,
                "true_label": r.true_label,
                "attack_success": r.attack_success,
                "no_defense_label": r.no_defense_label,
                "no_defense_ok": r.no_defense_ok,
                "baseline_label": r.baseline_label,
                "baseline_ok": r.baseline_ok,
                "voted_label": r.voted_label,
                "voted_confidence": round(r.voted_confidence, 6),
                "defense_ok": r.defense_ok,
                "suspected_attack": r.suspected_attack,
                "warnings": list(r.warnings),
                "voters": [
                    {
                        "source": v.source,
                        "capture_date": v.capture_date,
                        "label": v.label,
                        "confidence": round(v.confidence, 6),
                    }
                    for v in r.voters
                ],
            }
            for r in sorted(report.defense_rows, key=lambda r: r.image_id)
        ],
        "aggregates": {
            "attack_success_rate": report.attack_success_rate(),
            "defense_success_rate": report.defense_success_rate(),
            "baseline_defense_rate": report.baseline_defense_rate(),
        },
        "meta": report.meta,
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _emit_text(report: ExperimentReport) -> bytes:
    name = lambda i: report.class_names[i] if report.class_names else str(i)  # noqa: E731
    lines: list[str] = []
    if report.attack_rows:
        lines.append(f"Attack sweep ({len(report.attack_rows)} images)")
        lines.append(f"{'id':>4}  {'true':<20} {'clean':<28} {'adversarial':<28} {'flip':<4} note")
        for r in sorted(report.attack_rows, key=lambda r: r.image_id):
            clean = f"{name(r.clean_label)} ({_pct(r.clean_confidence)}%)"
            adv = f"{name(r.adv_label)} ({_pct(r.adv_confidence)}%)"
            lines.append(
                f"{r.image_id:>4}  {name(r.true_label):<20} {clean:<28} {adv:<28} "
                f"{_yesno(r.success):<4} {r.mask_note}"
            )
        lines.append(f"attack success rate: {_pct(report.attack_success_rate())}%")
        lines.append("")
    if report.defense_rows:
        lines.append(f"Defense sweep ({len(report.defense_rows)} images)")
        lines.append(
            f"{'id':>4}  {'true':<20} {'no defense':<12} {'baseline':<12} "
            f"{'voted':<28} {'ok':<4} flags"
        )
        for r in sorted(report.defense_rows, key=lambda r: r.image_id):
            flags = []
            if r.suspected_attack:
                flags.append("suspected-attack")
            flags.extend(r.warnings)
            voted = f"{name(r.voted_label)} ({_pct(r.voted_confidence)}%)"
            lines.append(
                f"{r.image_id:>4}  {name(r.true_label):<20} {_yesno(r.no_defense_ok):<12} "
                f"{_yesno(r.baseline_ok):<12} {voted:<28} {_yesno(r.defense_ok):<4} "
                f"{','.join(flags)}"
            )
            for v in r.voters:
                when = v.capture_date or "current"
                lines.append(
                    f"      voter {v.source:<8} {when:<12} {name(v.label):<20} "
                    f"{_pct(v.confidence)}%"
                )
        lines.append(f"defense success rate: {_pct(report.defense_success_rate())}%")
        if report.baseline_defense_rate() is not None:
            lines.append(f"baseline defense rate: {_pct(report.baseline_defense_rate())}%")
    if not lines:
        lines.append("empty report")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: ExperimentReport, format: str = "text-table") -> bytes:
    if format in ("text-table", "text"):
        return _emit_text(report)
    if format == "csv":
        return _emit_csv(report)
    if format == "json":
        return _emit_json(report)
    raise ValueError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# End-to-end sweep


def run_full_sweep(
    out_dir,
    seed: int = 0,
    synth_config: SynthConfig | None = None,
    train_config: TrainConfig | None = None,
    model_config: ModelConfig = ModelConfig(),
    attack_config: AttackConfig | None = None,
    vote_policy: VotePolicy = VotePolicy(),
    max_images: int | None = None,
) -> ExperimentReport:
    """synth -> train -> attack -> archive -> baseline -> defend -> report.

    Writes report.csv / report.json / report.txt plus both weight files
    under out_dir. All stages are seeded from `seed` by fixed offsets, so
    the csv report is byte-identical across runs.
    """
    os.makedirs(str(out_dir), exist_ok=True)
    scfg = synth_config or SynthConfig(seed=seed)
    tcfg = train_config or TrainConfig(seed=seed)
    acfg = attack_config or AttackConfig(seed=seed)

    log.info("rendering corpus: %d train + %d test per class", scfg.per_class, scfg.test_per_class)
    ds = synth_dataset(scfg)
    mcfg = dataclasses.replace(model_config, input_side=min(model_config.input_side, scfg.side))

    t0 = time.monotonic()
    weights = train(ds, tcfg, mcfg)
    train_seconds = time.monotonic() - t0
    accuracy, _ = evaluate(weights, ds.split("test"))
    log.info("clean model: %.2f%% test accuracy in %.1fs", accuracy * 100, train_seconds)

    t0 = time.monotonic()
    report = run_attack_sweep(weights, ds, acfg, max_images=max_images)
    attack_seconds = time.monotonic() - t0

    archive_root = os.path.join(str(out_dir), "archive")
    labels = [label for _, label in ds.split("test")]
    coords = make_history_archive(
        labels, archive_root, side=scfg.side, renders_per_sign=vote_policy.min_history, seed=seed + 1
    )

    baseline = train_adversarial_baseline(ds, acfg, tcfg, mcfg, augment_seed=seed + 17)

    t0 = time.monotonic()
    defense = run_defense_sweep(
        weights,
        report.attack_rows,
        archive_root,
        coords,
        baseline=baseline,
        policy=vote_policy,
        class_names=ds.class_names,
    )
    defense_seconds = time.monotonic() - t0

    report.defense_rows = defense.defense_rows
    report.meta = {
        "seed": seed,
        "clean_test_accuracy": round(accuracy, 6),
        "train_seconds": round(train_seconds, 3),
        "attack_seconds": round(attack_seconds, 3),
        "defense_seconds": round(defense_seconds, 3),
    }

    with open(os.path.join(str(out_dir), "weights.csw"), "wb") as fh:
        fh.write(save_weights(weights))
    with open(os.path.join(str(out_dir), "baseline.csw"), "wb") as fh:
        fh.write(save_weights(baseline))
    for fmt, filename in (("csv", "report.csv"), ("json", "report.json"), ("text-table", "report.txt")):
        with open(os.path.join(str(out_dir), filename), "wb") as fh:
            fh.write(emit_report(report, fmt))
    log.info(
        "sweep done: attack %s%%, defense %s%%, baseline %s%%",
        _pct(report.attack_success_rate()),
        _pct(report.defense_success_rate()),
        _pct(report.baseline_defense_rate()),
    )
    return report
