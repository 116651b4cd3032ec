"""Spec-driven experiment execution with a disk-backed artifact cache.

``Runner(cache_dir=...).run(ExperimentSpec(model, dataset, profile, seed))``
is the single fit → generate path of the repository: the CLI, every
benchmark and every example route through it.

Determinism
-----------
Each spec owns an independent fit/generate RNG stream derived from
``SeedSequence([seed, crc32(model), crc32(dataset), crc32(profile),
crc32(overrides)])``.  The few-shot supervision stream is seeded from
(seed, dataset) only, so all model variants at one seed share the same
labeled set.  Two runs of the same spec, in the same process or not,
produce bit-identical graphs.

Caching
-------
Two layers:

* an in-process memory cache (spec → :class:`RunResult`, fitted model
  included when a fit actually happened), so e.g. the Figure 6 benchmark
  reuses the models fitted for Figure 4 within one pytest session;
* an optional disk cache under ``cache_dir``: per spec a compressed
  ``<key>.npz`` adjacency (written by
  :func:`repro.core.serialization.save_graph`), a ``<key>.json``
  metadata sidecar (spec echo, timings, metrics, format version), and a
  ``<key>.model.npz`` fitted-model archive (written by
  :func:`repro.core.serialization.save_model`).  A warm disk cache
  survives across processes and makes a second ``run`` of the same spec
  perform **zero model fitting** — including ``need_model=True`` runs,
  which replay the fitted model from the archive instead of refitting.

Checkpoint / resume
-------------------
While a fit is *running*, its Trainer-backed training state checkpoints
into the same cache as ``<key>.ckpt.npz`` (at most every
``checkpoint_interval`` seconds; see :mod:`repro.train`).  A later
``run`` of the same spec that misses the artifact cache but finds a
checkpoint resumes the fit from its last completed epoch instead of
refitting from scratch — and because the checkpoint carries the exact
RNG state, the resumed run's artifacts are byte-identical to an
uninterrupted one.  The checkpoint is deleted once the finished
artifacts land, and it is stamped with the resolved parameters, so a
profile change invalidates it just like the artifact cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.serialization import (can_serialize, load_graph, load_model,
                                  save_graph, save_model)
from ..data import load_dataset
from ..eval import (mean_discrepancy, overall_discrepancy,
                    protected_discrepancy)
from ..graph import Graph
from ..models import GraphGenerativeModel
from ..obs import trace
from ..obs.metrics import MetricsRegistry, get_registry
from ..registry import get_entry
from .supervision import FEW_SHOT_PER_CLASS, Supervision

__all__ = ["ExperimentSpec", "RunResult", "Runner"]

#: bump when the cache layout or run semantics change incompatibly
#: (v3: FairGen's generator update fuses the pos/neg log-likelihood
#: forwards, which reassociates weight-gradient reductions — ULP-level
#: drift that compounds over training, so v2 fairgen artifacts are no
#: longer reproducible by a cold run of the same spec.  v2: the walk
#: engine's exact-fallback RNG consumption changed with the batched
#: inverse-CDF draw)
CACHE_FORMAT = "run-cache-v3"

#: sampling budget for the average-shortest-path metric in run metrics
_ASPL_SAMPLE = 120


def _freeze(value):
    """Recursively convert an override value to a hashable equivalent."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v))
                            for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        # Set iteration order is salted per process; sort so the cache
        # key and RNG entropy stay deterministic across processes.
        return tuple(sorted((_freeze(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    hash(value)  # unhashable exotics fail here, at spec construction
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully determined experiment: what to fit, on what, and how."""

    model: str                  #: registry name (canonical, display, alias)
    dataset: str                #: benchmark dataset name (Table I)
    profile: str = "paper"      #: hyperparameter profile name
    seed: int = 0               #: base seed of the spec's RNG streams
    #: hyperparameter overrides applied on top of the profile, stored as
    #: a sorted tuple of (name, value) pairs so specs stay hashable
    overrides: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self):
        pairs = (self.overrides.items()
                 if isinstance(self.overrides, Mapping) else self.overrides)
        object.__setattr__(
            self, "overrides",
            tuple(sorted(((str(k), _freeze(v)) for k, v in pairs),
                         key=lambda kv: kv[0])))
        # Normalise to the canonical registry name so specs built from a
        # display name ("FairGen-R") and a canonical one ("fairgen-r")
        # share a cache entry.
        object.__setattr__(self, "model", get_entry(self.model).name)
        object.__setattr__(self, "dataset", self.dataset.upper())

    @property
    def override_dict(self) -> dict[str, object]:
        return dict(self.overrides)

    def cache_key(self) -> str:
        """Filesystem-safe identifier of this spec."""
        key = f"{self.model}__{self.dataset}__{self.profile}__s{self.seed}"
        if self.overrides:
            digest = zlib.crc32(
                json.dumps(self.overrides, sort_keys=True,
                           default=str).encode())
            key += f"__o{digest:08x}"
        return key

    def entropy(self) -> list[int]:
        """Integers feeding ``SeedSequence`` for this spec's streams."""
        parts = [self.model, self.dataset, self.profile,
                 json.dumps(self.overrides, sort_keys=True, default=str)]
        return [self.seed & 0xFFFFFFFF,
                *(zlib.crc32(p.encode()) for p in parts)]

    def rng(self, stream: int = 0) -> np.random.Generator:
        """Deterministic per-spec generator; streams are independent."""
        return np.random.default_rng(
            np.random.SeedSequence([*self.entropy(), stream]))


@dataclass
class RunResult:
    """Outcome of one (possibly cached) fit + generate execution."""

    spec: ExperimentSpec
    generated: Graph
    fit_seconds: float
    generate_seconds: float
    from_cache: bool = False
    #: the fitted model — ``None`` when the run was served from the disk
    #: cache without fitting
    model: GraphGenerativeModel | None = None
    #: ``{"overall": {...}, "overall_mean": float, "protected": ...}``
    #: when the run was executed with ``with_metrics=True``
    metrics: dict | None = None
    #: raw wall-clock of the *whole* stacked fit this seed rode in (the
    #: per-seed ``fit_seconds`` is the amortised share, raw / K), and K
    #: itself — ``None`` for ordinary per-seed fits.  Persisted in the
    #: sidecar so stacking speedup is reconstructable from sidecars
    #: alone: ``sum(per-seed sequential fits) / stacked_fit_seconds``.
    stacked_fit_seconds: float | None = None
    stacked_size: int | None = None

    @property
    def total_seconds(self) -> float:
        return self.fit_seconds + self.generate_seconds

    # Legacy aliases kept for the benchmark suite's table code.
    @property
    def model_name(self) -> str:
        return get_entry(self.spec.model).display_name

    @property
    def dataset_name(self) -> str:
        return self.spec.dataset


class Runner:
    """Executes :class:`ExperimentSpec` objects through the one public
    fit/generate path, with memory + disk caching.

    Parameters
    ----------
    cache_dir:
        Directory for the disk-backed artifact cache; ``None`` disables
        disk caching (the in-process memory cache still applies).
    allow_surrogate:
        Derive surrogate supervision for unlabeled datasets when a
        label-aware model is requested (the benchmark convention).  With
        ``False``, such specs raise ``ValueError``.
    few_shot_per_class:
        Size of the few-shot labeled set revealed to label-aware models.
    checkpoint_interval:
        Minimum seconds between mid-fit ``<key>.ckpt.npz`` checkpoint
        writes (requires a ``cache_dir``).  ``0`` checkpoints after
        every training epoch; fits shorter than the interval never pay
        any checkpoint I/O.  The scheduler's Worker sets its heartbeat
        interval here so a SIGKILLed fit resumes losing at most one
        lease period of work.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 allow_surrogate: bool = True,
                 few_shot_per_class: int = FEW_SHOT_PER_CLASS,
                 checkpoint_interval: float = 30.0,
                 registry: MetricsRegistry | None = None):
        self.cache_dir = (Path(cache_dir).expanduser()
                          if cache_dir is not None else None)
        self.allow_surrogate = allow_surrogate
        self.few_shot_per_class = few_shot_per_class
        self.checkpoint_interval = float(checkpoint_interval)
        self._memory: dict[ExperimentSpec, RunResult] = {}
        self._datasets: dict[str, object] = {}
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._m_hits = registry.counter(
            "runner_cache_hits_total", "Runner cache hits by layer")
        self._m_misses = registry.counter(
            "runner_cache_misses_total", "Runner cache misses (fresh fits)")
        self._m_fits = registry.counter(
            "runner_fits_total", "Model fits executed by the Runner")
        self._m_generates = registry.counter(
            "runner_generates_total", "Graph generations executed")
        self._m_fit_seconds = registry.histogram(
            "runner_fit_seconds", "Wall-clock seconds per Runner fit")
        self._m_generate_seconds = registry.histogram(
            "runner_generate_seconds", "Wall-clock seconds per generation")

    # ------------------------------------------------------------------
    # Dataset / supervision helpers
    # ------------------------------------------------------------------
    def dataset(self, name: str):
        """Load (and memoise) a benchmark dataset."""
        key = name.upper()
        if key not in self._datasets:
            self._datasets[key] = load_dataset(key)
        return self._datasets[key]

    def supervision_for(self, spec: ExperimentSpec) -> Supervision:
        """The supervision a label-aware model would receive for ``spec``.

        The few-shot stream is seeded from (seed, dataset) only — NOT
        the model or profile — so every model variant at the same seed
        trains on the identical labeled set L.  The paper's ablations
        (Table III, Figure 5) compare variants; drawing different L per
        variant would confound them with labeled-set variance.
        """
        entropy = [spec.seed & 0xFFFFFFFF,
                   zlib.crc32(spec.dataset.encode()), 1]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return Supervision.from_dataset(
            self.dataset(spec.dataset), rng=rng,
            per_class=self.few_shot_per_class,
            allow_surrogate=self.allow_surrogate)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec, *, need_model: bool = False,
            with_metrics: bool = False) -> RunResult:
        """Execute (or replay) one spec.

        ``need_model`` guarantees ``result.model`` is a fitted model —
        restored from the cache's ``.model.npz`` archive when present,
        refit only when the cache has no (valid) model artifact.
        ``with_metrics`` attaches the discrepancy scoreboard
        (overall, and protected when the dataset has — possibly
        surrogate — supervision).
        """
        warm = self._warm(spec, need_model=need_model,
                          with_metrics=with_metrics)
        if warm is not None:
            return warm

        self._m_misses.inc()
        cached = self._memory.get(spec)
        result = self._execute(spec)
        # Carry metrics already computed for this artifact (in memory or
        # in the cache sidecar) across a need_model refit.
        result.metrics = ((cached.metrics if cached is not None else None)
                          or self._cached_metrics(spec))
        if with_metrics and result.metrics is None:
            result.metrics = self._metrics_for(spec, result.generated)
        self._store(spec, result)
        return result

    def run_many(self, specs: Iterable[ExperimentSpec], *,
                 need_model: bool = False,
                 with_metrics: bool = False) -> list[RunResult]:
        """Execute a batch of specs in order, one :meth:`run` each.

        To spread a batch over worker processes or hosts, use
        :func:`repro.experiments.sweep.run_sweep` with a shared
        ``cache_dir``; afterwards ``run`` or ``run_many`` on that cache
        replays every spec with zero fits, ``need_model=True`` included.
        """
        return [self.run(spec, need_model=need_model,
                         with_metrics=with_metrics) for spec in specs]

    def _warm(self, spec: ExperimentSpec, *, need_model: bool,
              with_metrics: bool) -> RunResult | None:
        """The memory-cache hit, else the disk replay, else ``None``.

        A memory entry without a fitted model does not satisfy
        ``need_model``; the disk replay then restores the model from the
        ``.model.npz`` archive.
        """
        cached = self._memory.get(spec)
        if cached is not None and (cached.model is not None
                                   or not need_model):
            self._m_hits.inc(layer="memory")
            if with_metrics:
                self._ensure_metrics(spec, cached)
            return cached
        disk = self._load_from_disk(spec, with_metrics,
                                    need_model=need_model)
        if disk is not None:
            self._m_hits.inc(layer="disk")
            self._memory[spec] = disk
        return disk

    # ------------------------------------------------------------------
    # Seed-stacked execution
    # ------------------------------------------------------------------
    def stackable(self, specs: Sequence[ExperimentSpec]) -> bool:
        """Whether ``specs`` form a seed-stackable grid cell.

        A cell stacks when its specs differ *only* in seed, there are at
        least two of them, and the model opts into ``fit_stacked`` while
        taking no supervision (per-seed supervision streams would differ
        across the stack, breaking per-seed reproducibility).
        """
        specs = list(specs)
        if len(specs) < 2:
            return False
        head = specs[0]
        cell = (head.model, head.dataset, head.profile, head.overrides)
        if any((s.model, s.dataset, s.profile, s.overrides) != cell
               for s in specs[1:]):
            return False
        if len({s.seed for s in specs}) != len(specs):
            return False
        entry = get_entry(head.model)
        if entry.needs_supervision:
            return False
        return entry.build(head.profile, head.override_dict) \
            .supports_stacked_fit

    def run_stacked(self, specs: Sequence[ExperimentSpec], *,
                    need_model: bool = False,
                    with_metrics: bool = False) -> list[RunResult]:
        """Execute one grid cell's seeds as a single stacked fit.

        The K specs must differ only in seed.  Cache-warm seeds are
        served without fitting; the misses train as ONE vmap-style
        tensor program (:meth:`GraphGenerativeModel.fit_stacked`) and
        unstack into per-seed artifacts stored under the *same* cache
        keys the per-seed path uses — a later ``run`` of any seed, here
        or in a sweep worker, replays them indistinguishably.  Cells
        that cannot stack (single seed, supervision, unsupported model)
        degrade to sequential :meth:`run` calls.
        """
        warm = [self._warm(spec, need_model=need_model,
                           with_metrics=with_metrics) for spec in specs]
        pending = [spec for spec, hit in zip(specs, warm) if hit is None]
        if self.stackable(pending):
            self._execute_stacked(pending)
        # Stacked seeds now replay from memory; other misses fit per-seed.
        return [hit if hit is not None
                else self.run(spec, need_model=need_model,
                              with_metrics=with_metrics)
                for spec, hit in zip(specs, warm)]

    def _execute_stacked(self, specs: list[ExperimentSpec]) -> None:
        """Fit a cell's pending seeds as one stacked program and store
        each seed's artifacts exactly as :meth:`_execute` would."""
        entry = get_entry(specs[0].model)
        data = self.dataset(specs[0].dataset)
        models = [entry.build(spec.profile, spec.override_dict)
                  for spec in specs]
        rngs = [spec.rng(stream=0) for spec in specs]

        control = None
        if self.cache_dir is not None:
            from ..train import TrainControl

            self.cache_dir.mkdir(parents=True, exist_ok=True)
            control = TrainControl(
                checkpoint_path=self.stacked_checkpoint_path(specs),
                min_save_interval=self.checkpoint_interval,
                tag=self._stamp(specs[0]))

        head = specs[0]
        start = time.perf_counter()
        with trace.span("runner.fit_stacked", model=head.model,
                        dataset=head.dataset, stack=len(specs)):
            type(models[0]).fit_stacked(models, data.graph, rngs,
                                        control=control)
        # The stack shares one fit; bill each seed its amortised share,
        # but keep the raw wall clock too so the speedup over K
        # sequential fits is reconstructable from sidecars alone.
        stacked_seconds = time.perf_counter() - start
        fit_seconds = stacked_seconds / len(specs)
        self._m_fits.inc(len(specs), model=head.model)
        self._m_fit_seconds.observe(stacked_seconds, model=head.model)
        self.registry.counter(
            "runner_stacked_fits_total",
            "Seed-stacked fit programs executed").inc(model=head.model)

        for spec, model, rng in zip(specs, models, rngs):
            start = time.perf_counter()
            with trace.span("runner.generate", model=spec.model,
                            dataset=spec.dataset, seed=spec.seed):
                generated = model.generate(rng)
            generate_seconds = time.perf_counter() - start
            self._m_generates.inc(model=spec.model)
            self._m_generate_seconds.observe(generate_seconds,
                                             model=spec.model)
            self._store(spec, RunResult(
                spec=spec, generated=generated, fit_seconds=fit_seconds,
                generate_seconds=generate_seconds, from_cache=False,
                model=model, stacked_fit_seconds=stacked_seconds,
                stacked_size=len(specs)))
        if control is not None:
            Path(control.checkpoint_path).unlink(missing_ok=True)

    def stacked_checkpoint_path(self,
                                specs: Sequence[ExperimentSpec]) -> Path:
        """Cell-level ``.stacked.ckpt.npz`` path for a stacked fit.

        Keyed by the cell plus the ordered seed list, so the same cell
        stacked over the same seeds resumes its checkpoint and any other
        seed set trains separately.
        """
        head = specs[0]
        digest = zlib.crc32(json.dumps(
            [[s.seed for s in specs], head.overrides],
            sort_keys=True, default=str).encode())
        key = (f"{head.model}__{head.dataset}__{head.profile}"
               f"__stack{len(specs)}_{digest:08x}")
        return self.cache_dir / f"{key}.stacked.ckpt.npz"

    # ------------------------------------------------------------------
    def _execute(self, spec: ExperimentSpec) -> RunResult:
        entry = get_entry(spec.model)
        data = self.dataset(spec.dataset)
        model = entry.build(spec.profile, spec.override_dict)
        self._install_train_control(spec, model)
        rng = spec.rng(stream=0)

        start = time.perf_counter()
        with trace.span("runner.fit", model=spec.model,
                        dataset=spec.dataset, profile=spec.profile,
                        seed=spec.seed):
            if entry.needs_supervision:
                supervision = self.supervision_for(spec)
                model.fit(data.graph, rng, supervision=supervision)
            else:
                model.fit(data.graph, rng)
        fit_seconds = time.perf_counter() - start
        self._m_fits.inc(model=spec.model)
        self._m_fit_seconds.observe(fit_seconds, model=spec.model)

        start = time.perf_counter()
        with trace.span("runner.generate", model=spec.model,
                        dataset=spec.dataset, seed=spec.seed):
            generated = model.generate(rng)
        generate_seconds = time.perf_counter() - start
        self._m_generates.inc(model=spec.model)
        self._m_generate_seconds.observe(generate_seconds, model=spec.model)

        return RunResult(spec=spec, generated=generated,
                         fit_seconds=fit_seconds,
                         generate_seconds=generate_seconds,
                         from_cache=False, model=model)

    def _metrics_for(self, spec: ExperimentSpec,
                     generated: Graph) -> dict:
        data = self.dataset(spec.dataset)
        overall = overall_discrepancy(data.graph, generated,
                                      aspl_sample=_ASPL_SAMPLE,
                                      rng=np.random.default_rng(0))
        metrics = {"overall": overall,
                   "overall_mean": mean_discrepancy(overall)}
        mask, surrogate = data.protected_mask, False
        if mask is None and self.allow_surrogate:
            mask, surrogate = self.supervision_for(spec).protected_mask, True
        if mask is not None:
            prot = protected_discrepancy(data.graph, generated,
                                         np.asarray(mask, dtype=bool),
                                         aspl_sample=_ASPL_SAMPLE,
                                         rng=np.random.default_rng(0))
            metrics["protected"] = prot
            metrics["protected_mean"] = mean_discrepancy(prot)
            # R+ against a degree-derived surrogate group is not
            # comparable to R+ against a shipped protected attribute;
            # consumers must be able to tell them apart.
            metrics["protected_surrogate"] = surrogate
        return metrics

    # ------------------------------------------------------------------
    # Disk cache
    # ------------------------------------------------------------------
    def _stamp(self, spec: ExperimentSpec) -> str:
        """What the artifact actually depended on, beyond the spec name.

        Profile dicts live in the registry and can change between
        versions, and the Runner's own supervision settings shape
        label-aware fits — so cache entries record the *resolved*
        parameters and are treated as misses when they no longer match.
        """
        entry = get_entry(spec.model)
        stamp: dict[str, object] = {
            "params": entry.params(spec.profile, spec.override_dict),
            # shapes label-aware fits and the protected-metrics row of
            # cached metadata, so it must invalidate the entry too
            "allow_surrogate": self.allow_surrogate}
        if entry.needs_supervision:
            stamp["few_shot_per_class"] = self.few_shot_per_class
        return json.dumps(stamp, sort_keys=True, default=str)

    def _paths(self, spec: ExperimentSpec) -> tuple[Path, Path, Path]:
        key = spec.cache_key()
        return (self.cache_dir / f"{key}.npz",
                self.cache_dir / f"{key}.json",
                self.cache_dir / f"{key}.model.npz")

    def checkpoint_path(self, spec: ExperimentSpec) -> Path | None:
        """Where ``spec``'s mid-fit training checkpoint lives (if any)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.cache_key()}.ckpt.npz"

    def _install_train_control(self, spec: ExperimentSpec, model) -> None:
        """Arm a fit with checkpoint/resume through the artifact cache.

        Trainer-backed models pick the control up inside ``fit``; models
        without a training loop (ER, BA) simply never read it.  The
        control's tag is the Runner's resolved-parameter stamp, so a
        checkpoint written under different hyperparameters or
        supervision settings is ignored, exactly like a stale cache
        entry.
        """
        if self.cache_dir is None:
            return
        from ..train import TrainControl

        self.cache_dir.mkdir(parents=True, exist_ok=True)
        model.train_control = TrainControl(
            checkpoint_path=self.checkpoint_path(spec),
            min_save_interval=self.checkpoint_interval,
            tag=self._stamp(spec))

    def _ensure_metrics(self, spec: ExperimentSpec,
                        result: RunResult) -> None:
        """Attach metrics to ``result``, reusing the sidecar when valid."""
        if result.metrics is None:
            result.metrics = (self._cached_metrics(spec)
                              or self._metrics_for(spec, result.generated))
            self._write_metadata(spec, result)

    def _cached_metrics(self, spec: ExperimentSpec) -> dict | None:
        """Metrics recorded in the cache sidecar, if still valid."""
        if self.cache_dir is None:
            return None
        _, meta_path, _ = self._paths(spec)
        if not meta_path.exists():
            return None
        try:
            prior = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (prior.get("format") == CACHE_FORMAT
                and prior.get("stamp") == self._stamp(spec)):
            return prior.get("metrics")
        return None

    def _load_from_disk(self, spec: ExperimentSpec, with_metrics: bool,
                        need_model: bool = False) -> RunResult | None:
        if self.cache_dir is None:
            return None
        graph_path, meta_path, model_path = self._paths(spec)
        if not graph_path.exists() or not meta_path.exists():
            return None
        if need_model and not model_path.exists():
            return None  # artifact-only entry can't satisfy need_model
        import zipfile

        try:
            metadata = json.loads(meta_path.read_text())
            if (metadata.get("format") != CACHE_FORMAT
                    or metadata.get("stamp") != self._stamp(spec)):
                return None
            generated = load_graph(graph_path)
            model = (load_model(model_path, self.dataset(spec.dataset).graph)
                     if need_model else None)
        except (ValueError, KeyError, OSError, json.JSONDecodeError,
                zipfile.BadZipFile):
            return None  # corrupt entry: treat as a miss and recompute
        stacked = metadata.get("stacked_fit_seconds")
        stacked_size = metadata.get("stacked_size")
        result = RunResult(spec=spec, generated=generated,
                           fit_seconds=float(metadata["fit_seconds"]),
                           generate_seconds=float(
                               metadata["generate_seconds"]),
                           from_cache=True, model=model,
                           metrics=metadata.get("metrics"),
                           stacked_fit_seconds=(float(stacked)
                                                if stacked is not None
                                                else None),
                           stacked_size=(int(stacked_size)
                                         if stacked_size is not None
                                         else None))
        if with_metrics:
            self._ensure_metrics(spec, result)
        return result

    def _store(self, spec: ExperimentSpec, result: RunResult) -> None:
        self._memory[spec] = result
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        graph_path, _, model_path = self._paths(spec)
        save_graph(result.generated, graph_path)
        if result.model is not None and can_serialize(result.model):
            # Persisting the fitted model makes the warm cache able to
            # satisfy need_model=True runs with zero refits.  Custom
            # registry models outside the serialisable set degrade to
            # graph-only caching (need_model then refits as before).
            # Stored uncompressed so the serving daemon's model LRU can
            # mmap the weights instead of copying them per process
            # (load_model(mmap=True); weights barely compress anyway).
            save_model(result.model, model_path, compress=False)
        self._write_metadata(spec, result)
        # The finished artifacts supersede any mid-fit checkpoint.
        self.checkpoint_path(spec).unlink(missing_ok=True)

    def _write_metadata(self, spec: ExperimentSpec,
                        result: RunResult) -> None:
        if self.cache_dir is None:
            return
        _, meta_path, _ = self._paths(spec)
        metadata = {
            "format": CACHE_FORMAT,
            "stamp": self._stamp(spec),
            "spec": dataclasses.asdict(spec),
            "fit_seconds": result.fit_seconds,
            "generate_seconds": result.generate_seconds,
            "num_nodes": result.generated.num_nodes,
            "num_edges": result.generated.num_edges,
            "metrics": result.metrics,
        }
        if result.stacked_fit_seconds is not None:
            # Raw wall clock of the whole stacked fit (fit_seconds above
            # is the amortised share): speedup = K * mean(sequential
            # fit_seconds) / stacked_fit_seconds, from sidecars alone.
            metadata["stacked_fit_seconds"] = result.stacked_fit_seconds
            metadata["stacked_size"] = result.stacked_size
        if metadata["metrics"] is None:
            # e.g. a need_model=True refit: don't erase metrics a prior
            # with_metrics run already paid for on the same artifact.
            metadata["metrics"] = self._cached_metrics(spec)
        meta_path.write_text(json.dumps(metadata, indent=2, default=str))

