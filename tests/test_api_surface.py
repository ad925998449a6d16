"""The package's public names, and the names the benchmark tracer rebinds.

``bench/tracing.py`` instruments a run by rebinding module attributes by
name, so a name it lists must keep resolving on its module.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import uwbloc
from uwbloc.learners import (
    ForestClassifier,
    KnnClassifier,
    SoftVoteClassifier,
    TrainingSet,
    TreeClassifier,
    VoteWeights,
)

#: The modules that declare ``__all__``.
MODULES = [
    importlib.import_module(f"uwbloc.{name}")
    for name in ("calibration", "cli", "config", "evaluation", "fingerprint", "geometry",
                 "learners", "preprocess", "simulator")
]

#: Names taken out of the package: scalar and dict-valued twins of array paths, and
#: ``predict_measured``, whose one caller, ``build_db``, now applies the lines itself.
REMOVED = (
    "fit_pair", "mad_filter", "correct_range", "vertex_to_label", "IDENTITY_NOISE",
    "ClassProbabilities", "_ProbabilisticClassifier", "trilaterate_batch", "distances",
    "predict_measured",
)
REMOVED_METHODS = ("predict", "predict_proba", "predict_proba_batch")

#: Names a module imports from the package only so that the tracer can rebind them there.
TRACER_ONLY_IMPORTS = {
    "cli.py": {"clean_observation_rows", "derive_seed", "fit_model"},
    "evaluation.py": {"correct_triple", "measurement_stream", "simulate_range"},
}


def _tracing():
    """``bench/tracing.py``, loaded without putting ``bench/`` on the import path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_removed_twins_are_unreachable():
    for name in REMOVED:
        assert not hasattr(uwbloc, name)
        for module in MODULES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__
    assert not hasattr(uwbloc.evaluation.ErrorReport, "entry")
    assert not hasattr(uwbloc.calibration.ObservationData, "series")
    rng = np.random.default_rng(0)
    train = TrainingSet(rng.uniform(1.0, 100.0, size=(12, 3)), rng.integers(0, 3, size=12))
    knn, tree = KnnClassifier(train, k=1), TreeClassifier(train)
    for clf in (knn, tree, ForestClassifier(train, n_trees=2),
                SoftVoteClassifier(knn, tree, VoteWeights())):
        assert [m for m in REMOVED_METHODS if hasattr(clf, m)] == []


def test_every_name_the_tracer_rebinds_resolves():
    tracing = _tracing()
    targets = [
        (uwbloc.evaluation, tracing._EVALUATION_NAMES),
        (uwbloc.cli, tracing._CLI_NAMES),
        (uwbloc.cli, tracing._CLI_IO_NAMES),
        (uwbloc.evaluation, tracing.CLASSIFIERS),
        (uwbloc.simulator, ("measurement_stream", "simulate_range")),
        (uwbloc.calibration, ("mad_keep_mask",)),
    ]
    missing = [f"{module.__name__}.{name}" for module, names in targets for name in names
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_every_package_import_is_used_or_tracer_only():
    unused = {}
    for path in sorted(Path(uwbloc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = imported - used
    assert unused == TRACER_ONLY_IMPORTS
