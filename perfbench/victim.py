"""Fixed victim classifier for the attack and defend workloads.

victim.csw holds the seed-0 default-config classifier, the model the
seed-0 sweep trains: SynthConfig(seed=0), TrainConfig(seed=0) and a 32 px
input. Loading it instead of training keeps the attack and defend inputs
unchanged by a change to training. Regenerate it with

    python3 perfbench/victim.py

which trains for about two minutes on two cores, rewrites victim.csw and
prints the digest to put in VICTIM_SHA256. BLAS summation order can differ
between machines, so a regenerated file can differ from the shipped one.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

VICTIM_PATH = Path(__file__).resolve().parent / "victim.csw"
VICTIM_SHA256 = "2612ae2f91160faf21d2381245e31b59afb3b63c48cb6423a06d38be0e3944b3"


class VictimMismatch(ValueError):
    """victim.csw does not hash to VICTIM_SHA256."""


def load_victim():
    from chrono_shield import cnn

    data = VICTIM_PATH.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != VICTIM_SHA256:
        raise VictimMismatch(f"{VICTIM_PATH.name} has sha256 {digest}, expected {VICTIM_SHA256}")
    return cnn.load_weights(data)


def regenerate() -> str:
    from chrono_shield import cnn
    from chrono_shield.synth import SynthConfig, synth_dataset

    dataset = synth_dataset(SynthConfig(seed=0))
    weights = cnn.train(dataset, cnn.TrainConfig(seed=0), cnn.ModelConfig(input_side=32))
    data = cnn.save_weights(weights)
    VICTIM_PATH.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(VICTIM_PATH.parent.parent / "src"))
    print(regenerate())
