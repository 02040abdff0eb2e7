"""Command-line entry point.

    chrono-shield [--seed N] [--config FILE] [--out PATH] <command> ...

Commands: synth, train, mask, attack, defend, sweep, serve-fixture.
--out names a directory for multi-file commands; for single-artifact
commands (train/mask/attack) it may instead name the output file
directly. Config files are line-oriented key=value (see README for
every key). Each stage flag is shorthand for the config key it sets,
--seed for synth.seed, train.seed and attack.seed; a flag beats --seed,
which beats the --config file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from datetime import date

from .attack import DegenerateMask, InvalidConfig
from .cnn import (
    Classifier,
    EmptyDataset,
    LabelOutOfRange,
    ShapeMismatch,
    TrainingDiverged,
    evaluate,
    load_weights,
    save_weights,
    train,
)
from .codecs import IMAGE_FORMATS, load_image, save_image
from .configfile import BadConfigLine, UnknownConfigKey, apply_overrides, check_namespaces, parse_config_file
from .dataset import DatasetMalformed, DatasetMissing, load_dataset, save_dataset
from .defense import class_name, defend, format_verdict
from .fixture_server import HistoryFixtureServer
from .harness import STAGES, attack_image, emit_report, fit_input_side, run_full_sweep
from .history import (
    HistoryQuery,
    LocalArchive,
    ManifestMalformed,
    ManifestMissing,
    NetworkUnreachable,
    ProtocolError,
    RemoteHistoryClient,
)
from .masks import BinaryMask, InvalidThresholds, NoContourFound, generate_mask
from .raster import InvalidRadius, InvalidSigma
from .synth import CLASS_NAMES, synth_dataset

log = logging.getLogger("chrono_shield")

_IMAGE_EXTS = tuple(f".{fmt}" for fmt in IMAGE_FORMATS)

_SEEDED = ("synth", "train", "attack")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chrono-shield", description=__doc__)
    parser.add_argument("--seed", default=None, help="sets synth.seed, train.seed and attack.seed")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default="out", help="output directory or file (default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="render the synthetic corpus to --out/dataset")

    p = sub.add_parser("train", help="train the classifier, write a .csw weight file")
    p.add_argument("--data", default=None, help="dataset dir from `synth` (default: render fresh)")
    p.add_argument("--epochs", dest="train.epochs")

    p = sub.add_parser("mask", help="generate the sign-region mask for one image")
    p.add_argument("image")
    p.add_argument("--low", dest="mask.low", help="Canny low threshold")
    p.add_argument("--high", dest="mask.high", help="Canny high threshold")
    p.add_argument("--sigma", dest="mask.sigma", help="blur sigma")
    p.add_argument("--min-area", dest="mask.min_area_frac", help="contour area floor, fraction")

    p = sub.add_parser("attack", help="shadow-attack one image")
    p.add_argument("--model", "--weights", dest="model", required=True, help=".csw weight file")
    p.add_argument("--image", required=True)
    p.add_argument("--label", required=True, help="true class (name or index)")
    p.add_argument("--mask", default=None, help="mask image file (default: generate)")
    p.add_argument("--swarm", dest="attack.swarm")
    p.add_argument("--iters", dest="attack.iterations")
    p.add_argument("--darkening", dest="attack.darkening")
    p.add_argument("--k", dest="attack.vertices", help="shadow polygon vertex count")

    p = sub.add_parser("defend", help="majority-vote verdict over history")
    p.add_argument("--model", "--weights", dest="model", required=True, help=".csw weight file")
    p.add_argument("--image", required=True)
    p.add_argument("--history", required=True, help="archive directory or http(s) endpoint")
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)
    p.add_argument("--heading", type=float, required=True)
    p.add_argument("--before", default=None, help="only use captures before this ISO date")
    p.add_argument("--min-history", dest="vote.min_history")

    p = sub.add_parser("sweep", help="full experiment: synth, train, attack, defend, report")
    p.add_argument("--max-images", type=int, default=None)

    p = sub.add_parser("serve-fixture", help="serve a local archive over HTTP")
    p.add_argument("--root", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    return parser


def _configs(args) -> dict:
    """{stage: config} for every harness.STAGES entry: its defaults, then the
    --config file, then --seed, then each dotted flag given."""
    try:
        values = parse_config_file(args.config) if args.config else {}
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInput(f"cannot read config {args.config}: {exc}") from exc
    check_namespaces(values, STAGES)
    if args.seed is not None:
        values.update({f"{stage}.seed": args.seed for stage in _SEEDED})
    values.update({key: value for key, value in vars(args).items() if "." in key and value is not None})
    return {stage: apply_overrides(config(), values, stage) for stage, config in STAGES.items()}


class BadInput(ValueError):
    """A command-line input the command cannot use, with the file or flag
    it came from."""


# What a command raises for input it cannot use. main() prints each as one
# stderr line and exits 2; every other exception is a bug and propagates.
_INPUT_ERRORS = (
    BadInput,
    NoContourFound, InvalidThresholds, InvalidSigma, InvalidRadius,
    DegenerateMask, InvalidConfig,
    DatasetMissing, DatasetMalformed,
    ManifestMissing, ManifestMalformed, NetworkUnreachable, ProtocolError,
    BadConfigLine, UnknownConfigKey,
    EmptyDataset, LabelOutOfRange, ShapeMismatch, TrainingDiverged,
)


def _parse_label(text: str) -> int:
    if text in CLASS_NAMES:
        return CLASS_NAMES.index(text)
    try:
        label = int(text)
    except ValueError:
        label = -1
    if not 0 <= label < len(CLASS_NAMES):
        raise BadInput(f"label {text!r} is neither a class name nor an index in [0, {len(CLASS_NAMES)})")
    return label


def _read_image(path):
    try:
        return load_image(path)
    except (OSError, ValueError) as exc:
        raise BadInput(f"cannot read image {path}: {exc}") from exc


def _load_weights_file(path):
    try:
        with open(path, "rb") as fh:
            return load_weights(fh.read())
    except (OSError, ValueError) as exc:
        raise BadInput(f"cannot load model {path}: {exc}") from exc


def _history_query(args, max_records: int) -> HistoryQuery:
    try:
        return HistoryQuery(
            location=(args.lat, args.lon),
            heading=args.heading,
            max_records=max_records,
            before=date.fromisoformat(args.before) if args.before else None,
        )
    except ValueError as exc:
        raise BadInput(f"bad history query: {exc}") from exc


def _out_file(out: str, default_name: str, exts=_IMAGE_EXTS) -> str:
    """--out as a file when it has a matching extension, else a directory."""
    if out.lower().endswith(exts):
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return out
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, default_name)


def _start_server(args) -> HistoryFixtureServer:
    try:
        server = HistoryFixtureServer(args.root, host=args.host, port=args.port)
    except ManifestMissing:  # an OSError, but of --root, not of the socket
        raise
    except (OSError, OverflowError) as exc:
        raise BadInput(f"cannot serve on {args.host}:{args.port}: {exc}") from exc
    server.start()
    return server


def _cmd_synth(args) -> int:
    ds = synth_dataset(_configs(args)["synth"])
    target = os.path.join(args.out, "dataset")
    save_dataset(ds, target)
    print(f"wrote {len(ds.items)} images ({len(ds.class_names)} classes) to {target}")
    return 0


def _cmd_train(args) -> int:
    cfg = _configs(args)
    ds = load_dataset(args.data) if args.data else synth_dataset(cfg["synth"])
    weights = train(ds, cfg["train"], fit_input_side(cfg["model"], ds))
    accuracy, loss = evaluate(weights, ds.split("test") or ds.split("train"))
    path = _out_file(args.out, "weights.csw", exts=(".csw",))
    with open(path, "wb") as fh:
        fh.write(save_weights(weights))
    print(f"test accuracy {accuracy * 100:.2f}%  loss {loss:.4f}  weights -> {path}")
    return 0


def _cmd_mask(args) -> int:
    params = _configs(args)["mask"]
    img = _read_image(args.image)
    mask = generate_mask(img, params)
    path = _out_file(args.out, "mask.png")
    save_image(mask.to_image(), path)
    print(f"mask: {mask.count} of {img.width * img.height} pixels -> {path}")
    return 0


def _cmd_attack(args) -> int:
    cfg = _configs(args)
    weights = _load_weights_file(args.model)
    img = _read_image(args.image)
    label = _parse_label(args.label)
    mask = BinaryMask.from_image(_read_image(args.mask)) if args.mask else None
    result, note = attack_image(img, label, Classifier(weights), cfg["attack"], cfg["mask"], mask)
    path = _out_file(args.out, "adversarial.png")
    save_image(result.adversarial_image, path)
    before = result.original_prediction
    after = result.adversarial_prediction
    print(
        f"{class_name(before.label, CLASS_NAMES)} ({before.confidence * 100:.2f}%) -> "
        f"{class_name(after.label, CLASS_NAMES)} ({after.confidence * 100:.2f}%) "
        f"[{'flipped' if result.success else 'held'} after {result.iterations_used} "
        f"iterations]{f' ({note})' if note else ''}"
    )
    print(f"adversarial image -> {path}")
    return 0


def _cmd_defend(args) -> int:
    cfg = _configs(args)
    weights = _load_weights_file(args.model)
    img = _read_image(args.image)
    query = _history_query(args, cfg["vote"].min_history)
    if args.history.startswith(("http://", "https://")):
        client = RemoteHistoryClient(args.history, cache_dir=os.path.join(args.out, "cache"), policy=cfg["match"])
        try:
            records = client.query(query)
        finally:
            client.close()
    else:
        records = LocalArchive(args.history, cfg["match"]).query(query)
    verdict = defend(img, records, weights, cfg["vote"])
    print(format_verdict(verdict, CLASS_NAMES))
    return 0


def _cmd_sweep(args) -> int:
    if args.max_images is not None and args.max_images < 0:
        raise BadInput(f"--max-images must be >= 0, got {args.max_images}")
    report = run_full_sweep(args.out, _configs(args), args.max_images)
    sys.stdout.write(emit_report(report, "text-table").decode("utf-8"))
    print(f"reports under {args.out}: report.csv report.json report.txt")
    return 0


def _cmd_serve_fixture(args) -> int:
    import time

    server = _start_server(args)
    print(f"serving {args.root} at {server.url} (ctrl-c to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
        print("stopped")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "mask": _cmd_mask,
    "attack": _cmd_attack,
    "defend": _cmd_defend,
    "sweep": _cmd_sweep,
    "serve-fixture": _cmd_serve_fixture,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Progress lines go to the stderr of this call, so that a refusal is
    # the last stderr line, in a shell and under a test's capture alike.
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
