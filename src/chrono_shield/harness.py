"""Experiment orchestration: attack sweeps, defense sweeps, baselines, reports.

The sweep protocol: train on the synthetic corpus, attack every correctly
classified test image, then defend each attacked frame with archived
history and majority voting. Rows are accumulated into an
ExperimentReport whose aggregates are always recomputed from the rows,
never cached. Per-image attack rows are independent of each other, and
so are the clean and the baseline trainings: each pair runs through
parallel.map_in_order, on both cores where there are two, and comes back
in the order a serial run would give.
"""

from __future__ import annotations

import csv as _csv
import dataclasses
import enum
import io
import json
import logging
import os
import time
from dataclasses import dataclass, field
from datetime import date
from functools import partial

import numpy as np

from .attack import AttackConfig, AttackResult, ShadowSpec, apply_shadow, run_attack
from .cnn import (
    Classifier,
    EmptyDataset,
    ModelConfig,
    ModelWeights,
    TrainConfig,
    evaluate,
    predict_batch,
    save_weights,
    train,
)
from .configfile import InvalidConfig
from .dataset import LabeledImageSet
from .defense import Verdict, VotePolicy, class_name, defend
from .history import HistoryQuery, LocalArchive, MatchPolicy
from .masks import BinaryMask, MaskParams, NoContourFound, generate_mask
from .parallel import map_in_order
from .raster import RasterImage
from .synth import CLASS_NAMES, SynthConfig, make_history_archive, synth_dataset

log = logging.getLogger(__name__)

QUERY_DATE = date(2025, 1, 1)  # "now" for archive queries; history predates it

# Each config namespace and the stage config its keys set.
STAGES = {
    "synth": SynthConfig,
    "train": TrainConfig,
    "model": ModelConfig,
    "attack": AttackConfig,
    "vote": VotePolicy,
    "match": MatchPolicy,
    "mask": MaskParams,
}


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
    # Carried for the defense stage; report.json leaves them out.
    adversarial_image: RasterImage | None = field(default=None, metadata={"report": False})
    shadow: ShadowSpec | None = field(default=None, metadata={"report": False})
    # Set by run_defense_sweep: the vote on the adversarial image, and the
    # adversarially trained baseline's label for it.
    defense: Verdict | None = None
    baseline_label: int | None = None


def _share(flags: list[bool]) -> float | None:
    return sum(flags) / len(flags) if flags else None


def _baseline_ok(a: AttackRecord) -> bool | None:
    return None if a.baseline_label is None else a.baseline_label == a.true_label


@dataclass
class ExperimentReport:
    class_names: list[str]
    attack_rows: list[AttackRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def _defended_hits(self) -> list[AttackRecord]:
        return [r for r in self.attack_rows if r.success and r.defense is not None]

    def attack_success_rate(self) -> float | None:
        return _share([r.success for r in self.attack_rows])

    def defense_success_rate(self) -> float | None:
        """Defended-correct over successfully attacked images only."""
        return _share([r.defense.voted_label == r.true_label for r in self._defended_hits()])

    def baseline_defense_rate(self) -> float | None:
        return _share([_baseline_ok(r) for r in self._defended_hits() if r.baseline_label is not None])


# ---------------------------------------------------------------------------
# Attack sweep


def attack_image(
    img: RasterImage, label: int, victim, config: AttackConfig, mask_params: MaskParams, mask: BinaryMask | None = None
) -> tuple[AttackResult, str]:
    """run_attack on img within mask, else within img's mask made with
    mask_params, else within the full frame and a note that says why."""
    note = ""
    if mask is None:
        try:
            mask = generate_mask(img, mask_params)
        except NoContourFound:
            mask = BinaryMask.full(img.width, img.height)
            note = "full-frame fallback: no contour found"
    return run_attack(img, mask, victim, label, config), note


def run_attack_sweep(
    weights: ModelWeights,
    dataset: LabeledImageSet,
    config: AttackConfig = AttackConfig(),
    max_images: int | None = None,
    *,
    mask_params: MaskParams = MaskParams(),
) -> ExperimentReport:
    """Attack every correctly classified test image; one row per attempt.

    Masks come from the edge/contour pipeline run with mask_params;
    images where no contour survives fall back to a full-frame mask and
    the row says so. The PSO seed is re-derived per image so row i is
    reproducible in isolation. The clean pass that picks the images is serial; the rows then run
    through map_in_order and come back, with their log lines, in image_id
    order.
    """
    clf = Classifier(weights)
    items = dataset.split("test")
    report = ExperimentReport(class_names=list(dataset.class_names))
    targets = []
    for image_id, (img, label) in enumerate(items):
        if max_images is not None and len(targets) >= max_images:
            break
        clean = clf([img])[0]
        if clean.label == label:
            targets.append((image_id, img, label, clean))

    def attack_row(target) -> AttackRecord:
        image_id, img, label, clean = target
        per_image = dataclasses.replace(config, seed=config.seed * 100003 + image_id)
        result, note = attack_image(img, label, clf, per_image, mask_params)
        return AttackRecord(
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

    report.attack_rows = map_in_order(attack_row, targets)
    for attacked, row in enumerate(report.attack_rows, 1):
        log.info(
            "attack %d/%d: image %d %s -> %s (%s)",
            attacked,
            len(report.attack_rows),
            row.image_id,
            class_name(row.true_label, dataset.class_names),
            class_name(row.adv_label, dataset.class_names),
            "flipped" if row.success else "held",
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
    history,
    coords: list[tuple[float, float, float]],
    baseline: ModelWeights | None = None,
    policy: VotePolicy = VotePolicy(),
    class_names: list[str] | None = None,
) -> ExperimentReport:
    """Defend each attacked frame with archived history of the same sign.

    history is any source with query(HistoryQuery); each sign is queried
    at the (lat, lon, heading) coords[image_id] it was archived under.
    Returns a report of copies of attack_rows, each with its defense set to
    the Verdict and its baseline_label to the baseline model's label; a row
    without an adversarial image keeps both None. The rows passed in are
    left as they are.
    """

    def defend_row(row: AttackRecord) -> AttackRecord:
        if row.adversarial_image is None:
            return dataclasses.replace(row)
        lat, lon, heading = coords[row.image_id]
        query = HistoryQuery(location=(lat, lon), heading=heading, max_records=policy.min_history, before=QUERY_DATE)
        verdict = defend(row.adversarial_image, history.query(query), weights, policy)
        baseline_label = None if baseline is None else predict_batch(baseline, [row.adversarial_image])[0].label
        return dataclasses.replace(row, defense=verdict, baseline_label=baseline_label)

    rows = [defend_row(row) for row in attack_rows]
    return ExperimentReport(class_names=list(class_names or []), attack_rows=rows)


# ---------------------------------------------------------------------------
# Report emission


def _pct(x: float | None) -> str:
    return "" if x is None else f"{x * 100:.2f}"


def _yesno(x: bool | None) -> str:
    return "" if x is None else ("yes" if x else "no")


def _by_id(rows: list) -> list:
    return sorted(rows, key=lambda r: r.image_id)


def _rates(report: ExperimentReport) -> dict[str, float | None]:
    return {
        "attack_success_rate": report.attack_success_rate(),
        "defense_success_rate": report.defense_success_rate(),
        "baseline_defense_rate": report.baseline_defense_rate(),
    }


def _iso(when: date | None) -> str:
    return when.isoformat() if when else ""


def _voters(d: Verdict, name) -> str:
    return "|".join(f"{v.source}:{_iso(v.capture_date)}:{name(v.label)}:{_pct(v.confidence)}" for v in d.votes)


# report.csv's columns in order, each (header, cell of attack row a and its
# defense d, with name mapping a label to its class name): the attack
# columns, then the defense columns, which are empty for a row that was
# not defended.
_ATTACK_COLUMNS = (
    ("image_id", lambda a, d, name: a.image_id),
    ("true", lambda a, d, name: name(a.true_label)),
    ("clean", lambda a, d, name: name(a.clean_label)),
    ("clean_conf", lambda a, d, name: _pct(a.clean_confidence)),
    ("adv", lambda a, d, name: name(a.adv_label)),
    ("adv_conf", lambda a, d, name: _pct(a.adv_confidence)),
    ("attack_success", lambda a, d, name: _yesno(a.success)),
    ("iterations", lambda a, d, name: a.iterations),
    ("mask_note", lambda a, d, name: a.mask_note),
)
_CSV_COLUMNS = _ATTACK_COLUMNS + (
    ("no_defense_ok", lambda a, d, name: _yesno(a.adv_label == a.true_label)),
    ("baseline", lambda a, d, name: "" if a.baseline_label is None else name(a.baseline_label)),
    ("baseline_ok", lambda a, d, name: _yesno(_baseline_ok(a))),
    ("voted", lambda a, d, name: name(d.voted_label)),
    ("voted_conf", lambda a, d, name: _pct(d.voted_confidence)),
    ("defense_ok", lambda a, d, name: _yesno(d.voted_label == a.true_label)),
    ("suspected_attack", lambda a, d, name: _yesno(d.suspected_attack)),
    ("warnings", lambda a, d, name: "|".join(w.name for w in d.warnings)),
    ("voters", lambda a, d, name: _voters(d, name)),
)
_CSV_HEADER = [header for header, _ in _CSV_COLUMNS]


def _emit_csv(report: ExperimentReport) -> bytes:
    buf = io.StringIO()
    for key, rate in _rates(report).items():
        buf.write(f"# {key}={_pct(rate)}\n")
    writer = _csv.DictWriter(buf, fieldnames=_CSV_HEADER, restval="", lineterminator="\n")
    writer.writeheader()
    name = partial(class_name, class_names=report.class_names)
    for a in _by_id(report.attack_rows):
        columns = _CSV_COLUMNS if a.defense is not None else _ATTACK_COLUMNS
        writer.writerow({header: cell(a, a.defense, name) for header, cell in columns})
    return buf.getvalue().encode("utf-8")


def _to_json(value):
    """A record as JSON data, walked from its dataclass fields: fields marked
    report=False are left out, floats round to 6 places, tuples become lists,
    a date its ISO string and an Enum its name."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("report", True)
        }
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, enum.Enum):
        return value.name
    return value


def _emit_json(report: ExperimentReport) -> bytes:
    doc = {
        "class_names": report.class_names,
        "attack_rows": [_to_json(r) for r in _by_id(report.attack_rows)],
        "aggregates": _rates(report),
        "meta": report.meta,
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _emit_text(report: ExperimentReport) -> bytes:
    name = partial(class_name, class_names=report.class_names)
    lines: list[str] = []
    if report.attack_rows:
        lines.append(f"Attack sweep ({len(report.attack_rows)} images)")
        lines.append(f"{'id':>4}  {'true':<20} {'clean':<28} {'adversarial':<28} {'flip':<4} note")
        for r in _by_id(report.attack_rows):
            clean = f"{name(r.clean_label)} ({_pct(r.clean_confidence)}%)"
            adv = f"{name(r.adv_label)} ({_pct(r.adv_confidence)}%)"
            lines.append(
                f"{r.image_id:>4}  {name(r.true_label):<20} {clean:<28} {adv:<28} "
                f"{_yesno(r.success):<4} {r.mask_note}"
            )
        lines.append(f"attack success rate: {_pct(report.attack_success_rate())}%")
        lines.append("")
    defended = [r for r in _by_id(report.attack_rows) if r.defense is not None]
    if defended:
        lines.append(f"Defense sweep ({len(defended)} images)")
        lines.append(
            f"{'id':>4}  {'true':<20} {'no defense':<12} {'baseline':<12} "
            f"{'voted':<28} {'ok':<4} flags"
        )
        for r in defended:
            d = r.defense
            flags = []
            if d.suspected_attack:
                flags.append("suspected-attack")
            flags.extend(w.name for w in d.warnings)
            voted = f"{name(d.voted_label)} ({_pct(d.voted_confidence)}%)"
            lines.append(
                f"{r.image_id:>4}  {name(r.true_label):<20} {_yesno(r.adv_label == r.true_label):<12} "
                f"{_yesno(_baseline_ok(r)):<12} {voted:<28} {_yesno(d.voted_label == r.true_label):<4} "
                f"{','.join(flags)}"
            )
            for v in d.votes:
                when = _iso(v.capture_date) or "current"
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


_EMITTERS = {"text-table": _emit_text, "csv": _emit_csv, "json": _emit_json}


def emit_report(report: ExperimentReport, format: str = "text-table") -> bytes:
    """The report as bytes in one of the formats."""
    if format not in _EMITTERS:
        raise ValueError(f"unknown report format {format!r}")
    return _EMITTERS[format](report)


# ---------------------------------------------------------------------------
# End-to-end sweep


def _timed(job, *args, **kwargs):
    """(job(*args, **kwargs), wall seconds it took)."""
    t0 = time.monotonic()
    out = job(*args, **kwargs)
    return out, time.monotonic() - t0


def fit_input_side(model: ModelConfig, side: int) -> ModelConfig:
    """model with its input side cut to a frame side of side pixels."""
    return dataclasses.replace(model, input_side=min(model.input_side, side))


def run_full_sweep(out_dir, stages: dict | None = None, max_images: int | None = None) -> ExperimentReport:
    """synth -> train and baseline -> attack -> archive -> defend -> report.

    stages maps a STAGES namespace to its config; a namespace left out
    takes its defaults, so run_full_sweep(out_dir) is the seed-0 run.
    Writes report.csv / report.json / report.txt plus both weight files
    under out_dir. The augment stream and the archive are seeded from
    synth.seed by fixed offsets, so the csv report is byte-identical
    across runs. Each test sign is queried at the exact location and
    heading it was archived under, so the match.* keys can widen a sign's
    history, to neighbouring poles or other headings, but never narrow it.
    """
    sweep_start = time.monotonic()
    cfg = {stage: config() for stage, config in STAGES.items()} | (stages or {})
    if cfg["synth"].test_per_class == 0:
        raise EmptyDataset("no test items")
    mcfg = fit_input_side(cfg["model"], cfg["synth"].side)
    if mcfg.num_classes < len(CLASS_NAMES):
        raise InvalidConfig(f"model.num_classes is {mcfg.num_classes}, below the {len(CLASS_NAMES)} synth classes")
    os.makedirs(str(out_dir), exist_ok=True)
    seed = cfg["synth"].seed
    seconds = {}

    log.info("rendering corpus: %d train + %d test per class", cfg["synth"].per_class, cfg["synth"].test_per_class)
    ds, seconds["synth"] = _timed(synth_dataset, cfg["synth"])
    test_items = ds.split("test")

    # The baseline reads only the corpus and its own augment stream, so the
    # two trainings run side by side; each is timed inside its own job.
    (weights, seconds["train"]), (baseline, seconds["baseline"]) = map_in_order(
        _timed,
        [
            partial(train, ds, cfg["train"], mcfg),
            partial(train_adversarial_baseline, ds, cfg["attack"], cfg["train"], mcfg, augment_seed=seed + 17),
        ],
    )
    (accuracy, _), seconds["evaluate"] = _timed(evaluate, weights, test_items)
    log.info("clean model: %.2f%% test accuracy in %.1fs", accuracy * 100, seconds["train"])

    attacked, seconds["attack"] = _timed(
        run_attack_sweep, weights, ds, cfg["attack"], max_images=max_images, mask_params=cfg["mask"]
    )
    archive_root = os.path.join(str(out_dir), "archive")
    labels = [label for _, label in test_items]
    coords, seconds["archive"] = _timed(
        make_history_archive,
        labels, archive_root, side=cfg["synth"].side, renders_per_sign=cfg["vote"].min_history, seed=seed + 1,
    )
    report, seconds["defense"] = _timed(
        run_defense_sweep,
        weights, attacked.attack_rows, LocalArchive(archive_root, cfg["match"]), coords,
        baseline=baseline, policy=cfg["vote"], class_names=ds.class_names,
    )
    report.meta = {
        "seed": seed,
        "clean_test_accuracy": round(accuracy, 6),
        **{f"{stage}_seconds": round(s, 3) for stage, s in seconds.items()},
        "sweep_seconds": round(time.monotonic() - sweep_start, 3),
    }

    for filename, data in (
        ("weights.csw", save_weights(weights)),
        ("baseline.csw", save_weights(baseline)),
        ("report.csv", emit_report(report, "csv")),
        ("report.json", emit_report(report, "json")),
        ("report.txt", emit_report(report, "text-table")),
    ):
        with open(os.path.join(str(out_dir), filename), "wb") as fh:
            fh.write(data)
    log.info("sweep done: attack %s%%, defense %s%%, baseline %s%%", *map(_pct, _rates(report).values()))
    return report
