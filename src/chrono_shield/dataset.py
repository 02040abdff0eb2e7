"""Labeled image collections and their on-disk layout.

A dataset directory holds PNG images plus a manifest.json:
{"classes": [...], "items": [{"path": ..., "label": N, "split": "train"|"test"}]}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .codecs import load_image, save_image
from .history import resolve_inside
from .raster import RasterImage


class DatasetMissing(FileNotFoundError):
    """The dataset directory has no readable manifest.json."""


class DatasetMalformed(ValueError):
    """The manifest, an image it names or the items it lists cannot be used."""


@dataclass
class LabeledImageSet:
    """Images with integer labels and a train/test split tag per item."""

    class_names: list[str]
    items: list[tuple[RasterImage, int, str]] = field(default_factory=list)

    def validate(self) -> None:
        k = len(self.class_names)
        for _, label, split in self.items:
            if not 0 <= label < k:
                raise DatasetMalformed(f"label {label} outside [0, {k})")
            if split not in ("train", "test"):
                raise DatasetMalformed(f"unknown split tag {split!r}")
        train_labels = {label for _, label, split in self.items if split == "train"}
        if self.split("train") and train_labels != set(range(k)):
            missing = sorted(set(range(k)) - train_labels)
            raise DatasetMalformed(f"classes missing from train split: {missing}")

    def split(self, tag: str) -> list[tuple[RasterImage, int]]:
        return [(img, label) for img, label, split in self.items if split == tag]

    def __len__(self) -> int:
        return len(self.items)


def save_dataset(ds: LabeledImageSet, root) -> None:
    os.makedirs(root, exist_ok=True)
    manifest = {"classes": ds.class_names, "items": []}
    counters: dict[str, int] = {}
    for img, label, split in ds.items:
        idx = counters.get(split, 0)
        counters[split] = idx + 1
        rel = os.path.join(split, f"{ds.class_names[label]}_{idx:05d}.png")
        os.makedirs(os.path.join(root, split), exist_ok=True)
        save_image(img, os.path.join(root, rel))
        manifest["items"].append({"path": rel, "label": label, "split": split})
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def load_dataset(root) -> LabeledImageSet:
    """The dataset save_dataset wrote to root. A missing manifest raises
    DatasetMissing; a manifest that does not decode or lacks a key, an
    image path that resolves outside root, an image that does not load,
    no items at all or items that fail validate raise DatasetMalformed."""
    path = os.path.join(root, "manifest.json")
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise DatasetMissing(f"no readable manifest.json under {root}: {exc}") from exc
    try:
        manifest = json.loads(text)
        ds = LabeledImageSet(class_names=list(manifest["classes"]))
        rows = [(str(row["path"]), int(row["label"]), row["split"]) for row in manifest["items"]]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DatasetMalformed(f"bad dataset manifest {path}: {exc!r}") from exc
    if not rows:
        raise DatasetMalformed(f"dataset manifest {path} lists no items")
    real_root = os.path.realpath(root)
    for rel, label, split in rows:
        full = resolve_inside(real_root, rel)
        if full is None:
            raise DatasetMalformed(f"dataset image path {rel!r} resolves outside {root}")
        try:
            img = load_image(full)
        except (OSError, ValueError) as exc:
            raise DatasetMalformed(f"cannot read dataset image {full}: {exc}") from exc
        ds.items.append((img, label, split))
    ds.validate()
    return ds
