"""Majority-vote defense over historical observations of the same sign.

The current frame's prediction is pooled with predictions on past images
of the same physical sign; each image casts one vote. A current label that
loses the vote marks a suspected attack. Count ties fall back to summed
confidence, then to the lowest class index, and always carry a warning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .cnn import ModelWeights, Prediction, predict_batch
from .configfile import InvalidConfig
from .history import HistoricalRecord
from .raster import RasterImage


class DefenseWarning(enum.Enum):
    INSUFFICIENT_HISTORY = "insufficient_history"
    CONFIGURATION_CHANGE = "configuration_change"
    TIE_BROKEN = "tie_broken"


@dataclass(frozen=True)
class VotePolicy:
    min_history: int = 3
    change_threshold: float = 0.90

    def __post_init__(self):
        if self.min_history < 1:
            raise InvalidConfig(f"min_history must be >= 1, got {self.min_history}")


@dataclass(frozen=True)
class Vote:
    source: str  # "current", "archive", "remote", "history"
    prediction: Prediction
    capture_date: date | None = None


@dataclass(frozen=True)
class Verdict:
    voted_label: int
    voted_confidence: float
    votes: list[Vote]
    suspected_attack: bool
    warnings: list[DefenseWarning] = field(default_factory=list)


def majority_vote(
    current: Prediction,
    history: list[Prediction],
    policy: VotePolicy = VotePolicy(),
    history_meta: list[tuple[str, date | None]] | None = None,
) -> Verdict:
    """Pool one current and N historical predictions into a Verdict.

    history_meta optionally supplies (source, capture_date) per historical
    vote for the audit trail; it does not affect the outcome.
    """
    if history_meta is None:
        history_meta = [("history", None)] * len(history)
    if len(history_meta) != len(history):
        raise ValueError("history_meta length differs from history")
    votes = [Vote(source="current", prediction=current)]
    votes += [
        Vote(source=src, prediction=pred, capture_date=when)
        for pred, (src, when) in zip(history, history_meta)
    ]

    counts: dict[int, int] = {}
    conf_sum: dict[int, float] = {}
    for v in votes:
        counts[v.prediction.label] = counts.get(v.prediction.label, 0) + 1
        conf_sum[v.prediction.label] = conf_sum.get(v.prediction.label, 0.0) + v.prediction.confidence
    top = max(counts.values())
    tied = sorted(label for label, c in counts.items() if c == top)

    warnings: list[DefenseWarning] = []
    if len(tied) == 1:
        voted = tied[0]
    else:
        # Count tie: highest summed confidence, then lowest class index.
        best_conf = max(conf_sum[label] for label in tied)
        voted = min(label for label in tied if conf_sum[label] == best_conf)
        warnings.append(DefenseWarning.TIE_BROKEN)

    if len(history) < policy.min_history:
        warnings.append(DefenseWarning.INSUFFICIENT_HISTORY)
    if history:
        hist_labels = {p.label for p in history}
        if (
            len(hist_labels) == 1
            and current.label not in hist_labels
            and current.confidence >= policy.change_threshold
        ):
            # Unanimous old label vs a confident new one: the sign itself
            # may have been replaced rather than attacked.
            warnings.append(DefenseWarning.CONFIGURATION_CHANGE)

    agreeing = [v.prediction.confidence for v in votes if v.prediction.label == voted]
    return Verdict(
        voted_label=voted,
        voted_confidence=float(np.mean(agreeing)),
        votes=votes,
        suspected_attack=current.label != voted,
        warnings=warnings,
    )


def defend(
    current_image: RasterImage,
    records: list[HistoricalRecord],
    weights: ModelWeights,
    policy: VotePolicy = VotePolicy(),
) -> Verdict:
    """Classify the current frame plus pre-fetched history, then vote."""
    preds = predict_batch(weights, [current_image] + [r.image for r in records])
    meta = [(r.source, r.capture_date) for r in records]
    return majority_vote(preds[0], preds[1:], policy=policy, history_meta=meta)


def class_name(label: int, class_names: list[str] | None = None) -> str:
    """class_names[label], or `class_<label>` past the end of the names."""
    if class_names and 0 <= label < len(class_names):
        return class_names[label]
    return f"class_{label}"


def format_verdict(verdict: Verdict, class_names: list[str] | None = None) -> str:
    """Human-readable per-voter table plus the pooled verdict."""
    lines = []
    lines.append(f"{'voter':<10} {'date':<12} {'label':<20} {'conf':>6}")
    for v in verdict.votes:
        when = v.capture_date.isoformat() if v.capture_date else "-"
        lines.append(f"{v.source:<10} {when:<12} {class_name(v.prediction.label, class_names):<20} {v.prediction.confidence*100:6.2f}")
    lines.append(
        f"verdict: {class_name(verdict.voted_label, class_names)} ({verdict.voted_confidence*100:.2f}%)"
        f" suspected_attack={'yes' if verdict.suspected_attack else 'no'}"
    )
    if verdict.warnings:
        lines.append("warnings: " + ", ".join(w.value for w in verdict.warnings))
    return "\n".join(lines)
