"""The harness's orchestration against a plain loop (``reference_run.py``).

``run_experiment`` partitions each repeat once, standardizes it once (into
an array of the partition's pool and test rows alone, indexed by position),
stacks cells of one model and MMD^2 weight, and runs round by round.  None
of that may change a number: over small drawn configs its rows, and with
``dump_scores`` its score files, must equal bit for bit those of training,
evaluating and acquiring each cell alone, method by method, on the whole
dataset's rows; a score file names dataset rows either way.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allab.acquisition import METHODS
from allab.config import DatasetConfig, ExperimentConfig, ModelConfig
from allab.experiment import run_experiment
from allab.seeding import derive_rng
from allab.trainer import TrainConfig
from idx_files import write_idx_images, write_idx_labels
from reference_run import reference_run


@pytest.fixture(scope="module")
def idx_pool(tmp_path_factory):
    """A tiny three-class 4x4-pixel IDX pool, 48 train and 12 test images,
    with one pixel constant (0) in every image."""
    rng, root = derive_rng(3, "reference pixels"), tmp_path_factory.mktemp("idx")
    paths = {}
    for split, n in (("train", 48), ("test", 12)):
        labels = np.arange(n) % 3
        pixels = rng.normal(60.0 + 60.0 * labels[:, None], 40.0, (n, 16))
        pixels[:, 0] = 0
        images, label_file = root / f"{split}-images", root / f"{split}-labels"
        write_idx_images(images, np.clip(np.rint(pixels), 0, 255).reshape(n, 4, 4))
        write_idx_labels(label_file, labels)
        paths[split] = (str(images), str(label_file))
    return paths


def build_config(case, idx_pool, output_dir) -> ExperimentConfig:
    mode, pool_size = case["standardize"], case["pool_size"]
    if case["data"] == "synthetic":
        dataset = DatasetConfig(class_count=3, per_class=20, dim=3, separation=3.0, standardize=mode,
                                pool_size=pool_size)
    else:
        test = idx_pool["test"] if case["data"] == "idx with test split" else (None, None)
        dataset = DatasetConfig(
            kind="mnist", images_path=idx_pool["train"][0], labels_path=idx_pool["train"][1],
            test_images_path=test[0], test_labels_path=test[1], standardize=mode,
            pool_size=pool_size,
        )
    return ExperimentConfig(
        dataset=dataset,
        initial_count=6,
        budget=4,
        rounds=case["rounds"],
        repeats=case["repeats"],
        methods=tuple(case["methods"]),
        train=TrainConfig(
            epochs=4, batch_size=4, base_lr=0.1, mmd_weight=case["lambda"], n_checkpoints=2,
            kernel=case["kernel"],
        ),
        model=ModelConfig(hidden=case["hidden"], bald_passes=2),
        bias_classes=(0, 1) if case["bias"] else None,
        master_seed=case["seed"],
        output_dir=str(output_dir),
        dump_scores=case["dump_scores"],
    )


cases = st.fixed_dictionaries({
    "methods": st.lists(st.sampled_from(list(METHODS)), min_size=1, max_size=5, unique=True),
    "repeats": st.integers(1, 3),
    "rounds": st.integers(1, 3),
    "lambda": st.sampled_from([0.0, 0.1]),
    "standardize": st.sampled_from(["none", "pool", "labeled"]),
    "data": st.sampled_from(["synthetic", "idx", "idx with test split"]),
    "bias": st.booleans(),
    "kernel": st.sampled_from(["median", "median3", (0.5, 2.0)]),
    "hidden": st.sampled_from([(5,), (4, 3)]),
    "seed": st.integers(0, 2**16),
    "dump_scores": st.booleans(),
    # 30 is below every pool here (38 to 48 rows), so a standardized
    # partition leaves rows out and its positions are not dataset rows
    "pool_size": st.sampled_from([None, 30]),
})

# every method, two repeats, three rounds and lambda > 0 on pixels left
# unstandardized: each of them must show in the rows or the score files
EVERY_RULE = {
    "methods": list(METHODS), "repeats": 2, "rounds": 3, "lambda": 0.1, "standardize": "none",
    "data": "idx", "bias": False, "kernel": "median", "hidden": (5,), "seed": 0, "dump_scores": True,
    "pool_size": None,
}


@settings(max_examples=30, deadline=None)
@given(case=cases)
@example(case=EVERY_RULE)
@example(case={**EVERY_RULE, "standardize": "pool", "data": "synthetic", "bias": True,
               "kernel": "median3", "hidden": (4, 3)})
# standardized IDX partitions of a subsampled pool: every score file maps
# partition positions back to dataset rows
@example(case={**EVERY_RULE, "standardize": "pool", "pool_size": 30})
@example(case={**EVERY_RULE, "standardize": "labeled", "data": "idx with test split", "pool_size": 30})
def test_run_equals_the_plain_loop_bit_for_bit(idx_pool, case):
    with tempfile.TemporaryDirectory() as tmp:
        out, ref = Path(tmp) / "run", Path(tmp) / "reference"
        ref.mkdir()
        cfg = build_config(case, idx_pool, out)
        got = [dataclasses.astuple(log) for log in run_experiment(cfg)]
        assert got == reference_run(cfg, ref if case["dump_scores"] else None)
        if case["dump_scores"]:
            names = sorted(p.name for p in ref.iterdir())
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name
