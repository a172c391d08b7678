"""Spans around anomap's module-level functions, recorded from outside.

A :class:`Tracer` replaces the attributes that anomap's own callers look up
(``evalkit`` calls ``imagecore.median_filter``, ``reconstruct_patched`` calls
``diffusion.make_field``, and so on) with wrappers that record one span per
call: name, start, end, parent span and run id, plus a few counts taken from
the arguments.  Where a module imported a name into its own namespace
(``denoise.make_field``, ``phantom.octave_grid``), that binding is wrapped
too, and model ``denoise`` methods are wrapped on their classes.

Spans stay in memory.  Pool workers are forked with the wrappers in place;
since they exit without running ``atexit``, a worker appends its spans to one
file per pid each time its outermost span closes, and the parent collects the
files after the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.run_id = None
        self.spans = []          # (id, name, start, end, parent, run, attrs)
        self.stack = []          # ids of open spans
        self._base_depth = 0     # open spans inherited across fork
        self._seq = itertools.count()
        self._patches = []       # (owner, attr, original)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        if not self._patches:
            return
        self.pid = os.getpid()
        self.spans = []
        self._base_depth = len(self.stack)
        self._seq = itertools.count()

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` with a spanning wrapper.

        ``attrs(arguments)`` receives the call's bound arguments (defaults
        applied) and returns a dict stored on the span.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if attrs else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            extra = None
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs(bound.arguments)
            sid = (tracer.pid, next(tracer._seq))
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.run_id, extra))
                if (tracer.pid != tracer.main_pid
                        and len(tracer.stack) == tracer._base_depth):
                    tracer._flush_worker()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _flush_worker(self):
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self):
        """All spans of the runs so far: this process's and its workers'."""
        spans = [_normalise(s) for s in self.spans]
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                spans.extend(_normalise(json.loads(line)) for line in f)
            path.unlink()
        self.spans = []
        return spans


def _normalise(span):
    sid, name, start, end, parent, run, attrs = span
    return {"id": tuple(sid), "name": name, "start": start, "end": end,
            "parent": tuple(parent) if parent is not None else None,
            "run": run, "attrs": attrs or {}}


def _dataset_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def install(tracer):
    """Wrap every anomap function and method the pipeline looks up."""
    from anomap import (airprep, datasetio, denoise, diffusion, evalkit,
                        imagecore, iqa, phantom, pipeline, simplex)

    dataset_bytes = functools.lru_cache(maxsize=None)(_dataset_bytes)

    def px_octaves(a):
        return {"px_octaves": a["width"] * a["height"] * a["octaves"]}

    def pixels(a):
        return {"px": int(a["x_t"].pixels.size)}

    w = tracer.wrap
    w(pipeline, "run", "pipeline.run")
    w(pipeline, "ablate", "pipeline.ablate")
    w(pipeline, "run_fold", "pipeline.run_fold")
    w(pipeline, "write_report", "pipeline.write_report")
    w(phantom, "gen_dataset", "phantom.gen_dataset",
      attrs=lambda a: {"key": repr((a["seed"], a["size"], a["profile"],
                                    a["n_train_healthy"], a["n_val_abnormal"],
                                    a["n_test_abnormal"]))})
    w(datasetio, "load_dataset", "datasetio.load_dataset",
      attrs=lambda a: {"root": str(a["root"]),
                       "bytes": dataset_bytes(str(a["root"]))})
    # diffusion.simplex_field looks up simplex.octave_grid; phantom imported it
    w(simplex, "octave_grid", "simplex.octave_grid", attrs=px_octaves)
    w(phantom, "octave_grid", "simplex.octave_grid", attrs=px_octaves)
    # reconstruct_patched looks up diffusion.make_field; denoise imported it
    w(diffusion, "make_field", "diffusion.make_field")
    w(denoise, "make_field", "diffusion.make_field")
    w(diffusion, "reconstruct_patched", "diffusion.reconstruct_patched")
    w(denoise.BlurDenoiser, "denoise", "denoise.denoise", attrs=pixels)
    w(denoise.KernelMixtureModel, "denoise", "denoise.denoise", attrs=pixels)
    w(denoise, "train", "denoise.train",
      attrs=lambda a: {"img_epochs": len(a["data"]) * a["cfg"].epochs})
    w(denoise, "sample_gradients", "denoise.sample_gradients")
    w(iqa, "fusion_loss", "iqa.fusion_loss")
    w(iqa, "fusion_loss_grad", "iqa.fusion_loss_grad")
    w(iqa, "fusion_anomaly_map", "iqa.fusion_anomaly_map")
    w(imagecore, "median_filter", "imagecore.median_filter")
    w(imagecore, "erode", "imagecore.erode")
    w(airprep, "dataset_stats", "airprep.dataset_stats")
    w(airprep, "decide", "airprep.decide")
    w(airprep, "apply", "airprep.apply")
    w(evalkit, "score_sample", "evalkit.score_sample")
    w(evalkit, "evaluate_fold", "evalkit.evaluate_fold")
    w(evalkit, "greedy_threshold", "evalkit.greedy_threshold")
    w(evalkit, "auprc", "evalkit.auprc")


def self_times(spans, across_processes=False):
    """Span duration minus the time covered by its child spans.

    By default only children in the span's own process count; pool workers
    then leave the scoring phase in ``run_fold``'s self time.  With
    ``across_processes`` the children in workers count too, and since they
    overlap, the covered time is the union of the children's intervals.
    """
    children = defaultdict(list)
    for s in spans:
        parent = s["parent"]
        if parent is not None and (across_processes or parent[0] == s["id"][0]):
            children[parent].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            end = min(end, s["end"])
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_shares(spans):
    """Each layer's share of the self time summed over all processes."""
    selfs = self_times(spans, across_processes=True)
    by_layer = defaultdict(float)
    for s in spans:
        by_layer[s["name"].split(".")[0]] += selfs[s["id"]]
    total = sum(by_layer.values()) or 1.0
    return {k: v / total for k, v in sorted(by_layer.items(),
                                             key=lambda kv: -kv[1])}


def _ratio(num, den):
    return num / den if den else 0.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it;
    never below the median, so that few samples report the median twice."""
    return max(50, int(100 - 1000 / n)) if n else 50


def layer_metrics(spans, workers: int, main_pid: int) -> dict:
    """Per-layer counts and self times of one traced call."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    names_by_id = {s["id"]: s["name"] for s in spans}

    def calls(name):
        return len(by_name[name])

    def self_s(*names):
        return sum(selfs[s["id"]] for n in names for s in by_name[n])

    def dur(s):
        return s["end"] - s["start"]

    def under(name, parent_name):
        return [s for s in by_name[name]
                if names_by_id.get(s["parent"]) == parent_name]

    maps = calls("evalkit.score_sample")
    recons = calls("diffusion.reconstruct_patched")
    grads = calls("denoise.sample_gradients")
    train_s = sum(dur(s) for s in by_name["denoise.train"])
    recon_denoise = under("denoise.denoise", "diffusion.reconstruct_patched")
    gens = by_name["phantom.gen_dataset"]
    loads = by_name["datasetio.load_dataset"]
    score_ms = [1000.0 * dur(s) for s in by_name["evalkit.score_sample"]]
    tail = tail_percentile(len(score_ms))
    score_phase = self_s("pipeline.run_fold")
    worker_score = sum(dur(s) for s in by_name["evalkit.score_sample"]
                       if s["id"][0] != main_pid)
    folds = [dur(s) for s in by_name["pipeline.run_fold"]]

    return {
        "phantom.calls": len(gens),
        "phantom.self_s": self_s("phantom.gen_dataset"),
        "phantom.useful_ratio": _ratio(len({s["attrs"]["key"] for s in gens}),
                                       len(gens)),
        "datasetio.calls": len(loads),
        "datasetio.self_s": self_s("datasetio.load_dataset"),
        "datasetio.bytes_read": sum(s["attrs"]["bytes"] for s in loads),
        "datasetio.useful_ratio": _ratio(len({s["attrs"]["root"] for s in loads}),
                                         len(loads)),
        "simplex.calls": calls("simplex.octave_grid"),
        "simplex.self_s": self_s("simplex.octave_grid"),
        "simplex.px_octaves": sum(s["attrs"]["px_octaves"]
                                  for s in by_name["simplex.octave_grid"]),
        "diffusion.field_calls": calls("diffusion.make_field"),
        "diffusion.field_self_s": self_s("diffusion.make_field"),
        "diffusion.recon_calls": recons,
        "diffusion.recon_self_s": self_s("diffusion.reconstruct_patched"),
        "diffusion.denoiser_calls_per_map": _ratio(len(recon_denoise), recons),
        "diffusion.denoised_px_per_map": _ratio(
            sum(s["attrs"]["px"] for s in recon_denoise), recons),
        "denoise.calls": calls("denoise.denoise"),
        "denoise.self_s": self_s("denoise.denoise"),
        "denoise.train_s": train_s,
        "denoise.train_self_s": self_s("denoise.train"),
        "denoise.grad_calls": grads,
        "denoise.grad_self_s": self_s("denoise.sample_gradients"),
        # backtracking trial losses: fusion_loss called by train itself,
        # not from inside sample_gradients
        "denoise.trial_evals_per_grad": _ratio(
            len(under("iqa.fusion_loss", "denoise.train")), grads),
        "denoise.img_epochs_per_s": _ratio(
            sum(s["attrs"]["img_epochs"] for s in by_name["denoise.train"]),
            train_s),
        "iqa.loss_calls": calls("iqa.fusion_loss"),
        "iqa.loss_self_s": self_s("iqa.fusion_loss"),
        "iqa.grad_calls": calls("iqa.fusion_loss_grad"),
        "iqa.grad_self_s": self_s("iqa.fusion_loss_grad"),
        "iqa.map_calls": calls("iqa.fusion_anomaly_map"),
        "iqa.map_self_s": self_s("iqa.fusion_anomaly_map"),
        "imagecore.median_calls": calls("imagecore.median_filter"),
        "imagecore.median_self_s": self_s("imagecore.median_filter"),
        "imagecore.erode_self_s": self_s("imagecore.erode"),
        "imagecore.erode_per_map": _ratio(calls("imagecore.erode"), maps),
        "airprep.calls": calls("airprep.dataset_stats") + calls("airprep.decide")
        + calls("airprep.apply"),
        "airprep.self_s": self_s("airprep.dataset_stats", "airprep.decide",
                                 "airprep.apply"),
        "evalkit.score_calls": maps,
        "evalkit.score_p50_ms": statistics.median(score_ms) if score_ms else 0.0,
        "evalkit.score_tail_ms": (statistics.quantiles(score_ms, n=100,
                                                       method="inclusive")[tail - 1]
                                  if len(score_ms) >= 2 else
                                  max(score_ms, default=0.0)),
        "evalkit.threshold_self_s": self_s("evalkit.greedy_threshold",
                                           "evalkit.auprc",
                                           "evalkit.evaluate_fold"),
        "pipeline.fold_p50_s": statistics.median(folds) if folds else 0.0,
        "pipeline.score_phase_s": score_phase,
        "pipeline.pool_busy_frac": (_ratio(worker_score, workers * score_phase)
                                    if workers > 1 else 0.0),
        "pipeline.report_s": sum(dur(s) for s in by_name["pipeline.write_report"]),
    }


# name -> (unit, which direction is better)
PER_LAYER = {
    "phantom.calls": ("count", "lower"),
    "phantom.self_s": ("s", "lower"),
    "phantom.useful_ratio": ("ratio", "higher"),
    "datasetio.calls": ("count", "lower"),
    "datasetio.self_s": ("s", "lower"),
    "datasetio.bytes_read": ("B", "lower"),
    "datasetio.useful_ratio": ("ratio", "higher"),
    "simplex.calls": ("count", "lower"),
    "simplex.self_s": ("s", "lower"),
    "simplex.px_octaves": ("px-octave", "lower"),
    "diffusion.field_calls": ("count", "lower"),
    "diffusion.field_self_s": ("s", "lower"),
    "diffusion.recon_calls": ("count", "lower"),
    "diffusion.recon_self_s": ("s", "lower"),
    "diffusion.denoiser_calls_per_map": ("count/map", "lower"),
    "diffusion.denoised_px_per_map": ("px/map", "lower"),
    "denoise.calls": ("count", "lower"),
    "denoise.self_s": ("s", "lower"),
    "denoise.train_s": ("s", "lower"),
    "denoise.train_self_s": ("s", "lower"),
    "denoise.grad_calls": ("count", "lower"),
    "denoise.grad_self_s": ("s", "lower"),
    "denoise.trial_evals_per_grad": ("ratio", "lower"),
    "denoise.img_epochs_per_s": ("1/s", "higher"),
    "iqa.loss_calls": ("count", "lower"),
    "iqa.loss_self_s": ("s", "lower"),
    "iqa.grad_calls": ("count", "lower"),
    "iqa.grad_self_s": ("s", "lower"),
    "iqa.map_calls": ("count", "lower"),
    "iqa.map_self_s": ("s", "lower"),
    "imagecore.median_calls": ("count", "lower"),
    "imagecore.median_self_s": ("s", "lower"),
    "imagecore.erode_self_s": ("s", "lower"),
    "imagecore.erode_per_map": ("count/map", "lower"),
    "airprep.calls": ("count", "lower"),
    "airprep.self_s": ("s", "lower"),
    "evalkit.score_calls": ("count", "lower"),
    "evalkit.score_p50_ms": ("ms", "lower"),
    "evalkit.score_tail_ms": ("ms", "lower"),
    "evalkit.threshold_self_s": ("s", "lower"),
    "pipeline.fold_p50_s": ("s", "lower"),
    "pipeline.score_phase_s": ("s", "lower"),
    "pipeline.pool_busy_frac": ("ratio", "higher"),
    "pipeline.report_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# Per-layer values that must repeat exactly across traced runs of one input.
def exact_keys(metrics: dict):
    return sorted(k for k in metrics
                  if k.endswith(("calls", "_per_map")) or k in (
                      "simplex.px_octaves", "datasetio.bytes_read",
                      "phantom.useful_ratio", "datasetio.useful_ratio",
                      "denoise.trial_evals_per_grad"))
