"""perfbench's tracer wraps anomap's functions by name, from outside.  A
renamed function or argument would otherwise surface only as a crash in a
traced benchmark run; these tests install the tracer on the code as it is."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from anomap import config, pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_names_and_uninstall_restores_them(tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert orig.__module__.startswith("anomap")
            assert getattr(owner, attr).__wrapped__ is orig
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr}"


def test_traced_call_binds_every_wrapped_signature(tmp_path):
    # the wrappers read argument names (x_t, data, cfg, seed, width, ...)
    # when they record a span; a trained flair-like ablate reaches them all
    tracing = _tracing()
    cfg = replace(config.RunConfig(size=32, n_train=2, n_val=2, n_test=2,
                                   folds=1, seed=1, epochs=1, batch_size=2),
                  out=str(tmp_path / "out")).validate()
    tracer = tracing.Tracer(tmp_path / "spool")
    try:
        tracing.install(tracer)
        reports = pipeline.ablate(cfg)
    finally:
        tracer.uninstall()
    assert all(r.complete for r in reports.values())
    names = {s["name"] for s in tracer.collect()}
    for name in ("phantom.gen_dataset", "simplex.octave_grid",
                 "diffusion.make_field", "denoise.denoise", "denoise.train",
                 "denoise.sample_gradients", "iqa.fusion_anomaly_map",
                 "imagecore.median_filter", "airprep.decide", "airprep.apply"):
        assert name in names
