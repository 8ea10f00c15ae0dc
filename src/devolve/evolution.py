"""Evolutionary sparsification cycle.

Each cycle sweeps the in-scope layers: propose random candidate index sets,
apply the committed mask to the student once, then in each trial zero only
that trial's candidate on a copy of the masked tail (the layers from the
candidate layer on; the front runs once per sweep) and measure the student's
output divergence from frozen teacher outputs on a probe set. The
least-divergent candidate is committed irrevocably, then the survivors are
retrained toward the teacher by SGD through `nn.value_and_grads`, on one copy
that `retrain` owns, with masked gradients zeroed so pruned positions stay
0.0. Candidates are sampled over all prunable indices (including ones already
zeroed), so effective steps shrink as a layer fills up and the search gets
more cautious at high sparsity.

When layer 0 is a conv, `run` builds the probe's im2col matrix for it once
(if it fits in `nn.IM2COL_KEEP_BYTES`, 64 MiB) and every conv call on the
probe of that run reads its rows: the teacher outputs, each sweep's front,
each trial on layer 0 and each retraining step. The outputs have the same
bits as per-call im2col, which a larger matrix falls back to.

Every trial draws from its own RNG stream keyed by (master_seed, cycle, layer,
trial), so histories replay bit-identically regardless of evaluation order or
worker count.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn
from .datasets import ProbeSet
from .nn import Network
from .sparsity import CandidateSet, SparsityMask, apply_mask, merge, prunable_indices, sparsity


@dataclass
class Head:
    """One slice of the output vector: columns [start, stop), scaled by
    1/divisor before the squared-error comparison, weighted in the total."""

    start: int
    stop: int
    divisor: float = 1.0
    weight: float = 1.0


@dataclass
class DivergenceSpec:
    heads: list[Head]

    def __post_init__(self):
        if not self.heads:
            raise ValueError("divergence spec needs at least one head")
        for h in self.heads:
            if h.start < 0 or h.stop <= h.start:
                raise ValueError(f"head columns [{h.start}, {h.stop}) are empty or negative")
            if not (math.isfinite(h.divisor) and h.divisor > 0):
                raise ValueError(f"head divisor must be positive and finite, got {h.divisor}")
            if not (math.isfinite(h.weight) and h.weight >= 0):
                raise ValueError(f"head weight must be nonnegative and finite, got {h.weight}")
        if not any(h.weight > 0 for h in self.heads):
            raise ValueError("at least one head weight must be positive")

    @classmethod
    def whole_output(cls, width: int) -> "DivergenceSpec":
        return cls([Head(0, width)])


def divergence(student_out: np.ndarray, teacher_out: np.ndarray,
               spec: DivergenceSpec, grad: Optional[np.ndarray] = None) -> float:
    """Weighted sum of per-head mean squared errors on normalized outputs.
    With `grad`, each head also adds its d value / d student_out into it."""
    if student_out.shape != teacher_out.shape:
        raise ValueError(
            f"output shapes differ: {student_out.shape} vs {teacher_out.shape}"
        )
    total = 0.0
    for h in spec.heads:
        diff = (student_out[:, h.start:h.stop] - teacher_out[:, h.start:h.stop]) / h.divisor
        total += h.weight * float(np.mean(diff * diff))
        if grad is not None:
            grad[:, h.start:h.stop] += h.weight * 2.0 * diff / (h.divisor * diff.size)
    return total


def divergence_grad(student_out: np.ndarray, teacher_out: np.ndarray,
                    spec: DivergenceSpec):
    """(value, d value / d student_out) for retraining."""
    grad = np.zeros_like(student_out)
    return divergence(student_out, teacher_out, spec, grad), grad


@dataclass
class EvolutionConfig:
    trials_per_cycle: int = 120
    step_fraction: float = 0.05
    target_sparsity: float | dict[int, float] = 0.8
    divergence_budget: Optional[float] = None
    retrain_epochs: int = 0
    retrain_lr: float = 0.5
    retrain_batch_size: int = 64
    master_seed: int = 0
    scope: Optional[list[int]] = None
    include_biases: bool = False
    workers: int = 1
    max_cycles: int = 10_000

    def __post_init__(self):
        if self.trials_per_cycle < 1:
            raise ValueError("trials_per_cycle must be >= 1")
        if not 0.0 < self.step_fraction <= 1.0:
            raise ValueError("step_fraction must be in (0, 1]")
        targets = (self.target_sparsity.values()
                   if isinstance(self.target_sparsity, dict)
                   else [self.target_sparsity])
        for t in targets:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"target sparsity must be in [0, 1], got {t}")
        if not (math.isfinite(self.retrain_lr) and self.retrain_lr > 0):
            raise ValueError(f"retrain_lr must be positive and finite, got {self.retrain_lr}")
        if self.retrain_batch_size < 1:
            raise ValueError("retrain_batch_size must be >= 1")
        if self.retrain_epochs < 0:
            raise ValueError(f"retrain_epochs must be >= 0, got {self.retrain_epochs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        budget = self.divergence_budget
        if budget is not None and not (math.isfinite(budget) and budget >= 0):
            raise ValueError(f"divergence_budget must be finite and >= 0 (or None), "
                             f"got {budget}")

    def target_for(self, layer: int) -> float:
        if isinstance(self.target_sparsity, dict):
            return self.target_sparsity.get(layer, 0.0)
        return self.target_sparsity


@dataclass
class CycleRecord:
    cycle: int
    layer: int
    trial_divergences: np.ndarray
    best_index: int
    best_divergence: float
    committed: CandidateSet
    sparsity_before: float
    sparsity_after: float
    retrain_divergence: float = math.nan

    def __post_init__(self):
        self.trial_divergences = np.asarray(self.trial_divergences, dtype=np.float64)

    @property
    def mean(self) -> float:
        return float(np.mean(self.trial_divergences))

    @property
    def std(self) -> float:
        # trials are the whole population of the cycle
        return float(np.std(self.trial_divergences))


@dataclass
class RunResult:
    student: Network
    mask: SparsityMask
    history: list[CycleRecord]
    status: str
    final_divergence: float


def _trial_rng(master_seed: int, cycle: int, layer: int, trial: int):
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(cycle), int(layer), int(trial)])
    )


def _step(net: Network, layer: int, cfg: EvolutionConfig) -> tuple[int, np.ndarray]:
    """The nominal step, ceil(step_fraction * layer parameter count), and the
    layer's prunable indices, which must hold it."""
    pool = prunable_indices(net, layer, cfg.include_biases)
    nominal = math.ceil(cfg.step_fraction * net.layer_param_count(layer))
    if nominal > pool.size:
        raise ValueError(
            f"step_fraction {cfg.step_fraction} gives a nominal step of {nominal}, "
            f"more than the {pool.size} prunable positions of layer {layer}"
        )
    return nominal, pool


def scope_layers(net: Network, cfg: EvolutionConfig) -> list[int]:
    """The layers `run` sweeps on `net`, every parameter layer unless
    cfg.scope names some. Raises ValueError, naming the setting, when a scope
    layer or a target_sparsity key is not a parameter layer of `net`, or when
    a scope layer cannot hold the nominal step."""
    params = net.param_layer_indices()
    scope = list(cfg.scope) if cfg.scope is not None else params
    targets = list(cfg.target_sparsity) if isinstance(cfg.target_sparsity, dict) else []
    for name, layers in (("scope", scope), ("target_sparsity", targets)):
        for layer in layers:
            if layer not in params:
                raise ValueError(f"{name} names layer {layer}, which is not one of "
                                 f"the layers with parameters {params}")
    for layer in scope:
        _step(net, layer, cfg)
    return scope


def propose_candidates(net: Network, layer: int, cfg: EvolutionConfig,
                       cycle: int) -> list[CandidateSet]:
    """One candidate per trial, each of nominal size
    ceil(step_fraction * layer parameter count), sampled without replacement
    over all prunable indices of the layer (already-zeroed ones included)."""
    nominal, pool = _step(net, layer, cfg)
    out = []
    for t in range(cfg.trials_per_cycle):
        rng = _trial_rng(cfg.master_seed, cycle, layer, t)
        out.append(CandidateSet(layer, rng.choice(pool, size=nominal, replace=False)))
    return out


def evaluate_candidate(student: Network, cand: CandidateSet,
                       teacher_outputs: np.ndarray, inputs: np.ndarray,
                       spec: DivergenceSpec, cols: Optional[np.ndarray] = None) -> float:
    """Divergence of `student` on `inputs` with the candidate's indices
    zeroed; nothing else is masked. The student is never modified: the
    candidate's layer gets fresh tensors on a shallow copy. `cols` is as in
    `nn.forward`."""
    layer = student.layers[cand.layer]
    flat = layer.flat_params()
    flat[cand.indices] = 0.0
    scratch = student.replace_layer(cand.layer, layer.with_flat_params(flat))
    return divergence(nn.forward(scratch, inputs, cols), teacher_outputs, spec)


def evaluate_trials(student: Network, mask: SparsityMask,
                    candidates: Sequence[CandidateSet],
                    teacher_outputs: np.ndarray, probe: ProbeSet, spec: DivergenceSpec,
                    workers: int = 1, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Divergence per candidate, each zeroed on top of the mask; parallel
    execution is bit-identical to sequential because trials are independent
    and results keep trial order.

    The mask is applied once, and the layers in front of the first candidate
    layer run once on the probe: every trial evaluates only the tail of the
    network from that layer on, with its candidate re-indexed to the tail.
    `cols`, layer 0's im2col matrix of the probe that `run` builds once per
    run (see `probe_cols`), goes to whichever call runs layer 0: the front,
    or every trial when the front is empty."""
    masked = apply_mask(student, mask)
    front = min((c.layer for c in candidates), default=0)
    if front:
        acts = nn.forward(Network(masked.layers[:front], masked.input_shape),
                          probe.inputs, cols)
        cols = None
    else:
        acts = probe.inputs
    tail = Network(masked.layers[front:], acts.shape[1:])
    tail_cands = ([CandidateSet(c.layer - front, c.indices) for c in candidates]
                  if front else candidates)

    def trial(cand):
        return evaluate_candidate(tail, cand, teacher_outputs, acts, spec, cols)

    if workers <= 1 or len(candidates) < 2:
        divs = [trial(c) for c in tail_cands]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            divs = list(pool.map(trial, tail_cands))
    return np.asarray(divs, dtype=np.float64)


def select_and_commit(cycle: int, layer: int, candidates: Sequence[CandidateSet],
                      divergences: np.ndarray, mask: SparsityMask):
    """Commit the argmin-divergence candidate (ties to the lowest trial index).
    Returns (new mask, record); the decision is final."""
    if len(candidates) < 1:
        raise ValueError("need at least one evaluated trial")
    divergences = np.asarray(divergences, dtype=np.float64)
    if not np.isfinite(divergences).all():
        raise ValueError(f"non-finite trial divergences in cycle {cycle}, layer {layer}")
    best = int(np.argmin(divergences))
    before = sparsity(mask, layer)
    new_mask = merge(mask, candidates[best])
    record = CycleRecord(
        cycle=cycle,
        layer=layer,
        trial_divergences=divergences,
        best_index=best,
        best_divergence=float(divergences[best]),
        committed=candidates[best],
        sparsity_before=before,
        sparsity_after=sparsity(new_mask, layer),
    )
    return new_mask, record


def retrain(student: Network, mask: SparsityMask, teacher_outputs: np.ndarray,
            probe: ProbeSet, cfg: EvolutionConfig, spec: DivergenceSpec,
            cols: Optional[np.ndarray] = None) -> Network:
    """SGD on the divergence toward the teacher outputs; masked positions stay
    zero. Keeps the best parameters seen, so the result never diverges more
    than the input network, which is never modified. A step or epoch that goes
    non-finite ends the retraining (the next forward pass raises), and the best
    network so far stands. `cols` is as in `evaluate_trials`; a batch of items
    [lo, hi) takes its rows [lo*P, hi*P), P output pixels an item."""
    if cfg.retrain_epochs <= 0:
        return student
    inputs = probe.inputs
    n = inputs.shape[0]
    bs = min(cfg.retrain_batch_size, n)
    per_item = 0 if cols is None else cols.shape[0] // n
    best_net = apply_mask(student, mask)
    net = best_net.copy()  # the one network stepped in place
    ones = Network([l.with_flat_params(np.ones(l.flat_params().size)) for l in net.layers],
                   net.input_shape)
    # 1.0 where a parameter survives, 0.0 where it is masked: masked gradients
    # are zero, so masked positions stay exactly 0.0 through every step
    keep = apply_mask(ones, mask).param_tensors()
    best_div = divergence(nn.forward(net, inputs, cols), teacher_outputs, spec)
    try:
        for _ in range(cfg.retrain_epochs):
            for lo in range(0, n, bs):
                hi = min(lo + bs, n)
                target = teacher_outputs[lo:hi]
                _, grads = nn.value_and_grads(
                    net, inputs[lo:hi], lambda out: divergence_grad(out, target, spec),
                    None if cols is None else cols[lo * per_item:hi * per_item])
                for g, k in zip(grads, keep):
                    g *= k
                nn.sgd_step(net, grads, cfg.retrain_lr)
            div = divergence(nn.forward(net, inputs, cols), teacher_outputs, spec)
            if not math.isfinite(div):
                break
            if div < best_div:
                best_div = div
                best_net = net.copy()
    except FloatingPointError:
        pass
    return best_net


def probe_cols(net: Network, inputs: np.ndarray) -> Optional[np.ndarray]:
    """Layer 0's im2col matrix of `inputs` when layer 0 is a conv and the
    matrix fits in `nn.IM2COL_KEEP_BYTES`; otherwise None, and every conv call
    builds its own rows."""
    first = net.layers[0]
    if not isinstance(first, nn.Conv2D):
        return None
    oh, ow, _ = first.out_shape(net.input_shape)
    row_bytes = math.prod(first.kernel.shape[:3]) * 8
    if inputs.shape[0] * oh * ow * row_bytes > nn.IM2COL_KEEP_BYTES:
        return None
    return first.im2col(inputs)


def run(teacher: Network, probe: ProbeSet, cfg: EvolutionConfig,
        spec: Optional[DivergenceSpec] = None) -> RunResult:
    """Full evolution loop from a frozen teacher to a sparsified student.

    Stops when every in-scope layer reaches its target sparsity, when the
    divergence budget would be exceeded (the violating sweep is rolled back),
    or when no prunable positions remain ('saturated').
    """
    if probe.size < 1:
        raise ValueError("probe set must be nonempty")
    if spec is None:
        spec = DivergenceSpec.whole_output(int(np.prod(teacher.output_shape)))
    scope = scope_layers(teacher, cfg)

    cols = probe_cols(teacher, probe.inputs)
    teacher_outputs = nn.forward(teacher, probe.inputs, cols)  # teacher is frozen
    student = teacher.copy()
    mask = SparsityMask.empty(teacher)
    history: list[CycleRecord] = []

    def done(layer):
        return sparsity(mask, layer) >= cfg.target_for(layer)

    def saturated(layer):
        pool = prunable_indices(teacher, layer, cfg.include_biases)
        return bool(mask.layer_bits(layer)[pool].all())

    status = "target_reached"
    final_div = divergence(nn.forward(student, probe.inputs, cols), teacher_outputs, spec)
    for cycle in range(cfg.max_cycles):
        pending = [l for l in scope if not done(l)]
        if not pending:
            status = "target_reached"
            break
        workable = [l for l in pending if not saturated(l)]
        if not workable:
            status = "saturated"
            break
        snapshot = (student, mask, len(history), final_div)
        for layer in workable:
            candidates = propose_candidates(student, layer, cfg, cycle)
            divs = evaluate_trials(student, mask, candidates, teacher_outputs,
                                   probe, spec, cfg.workers, cols)
            mask, record = select_and_commit(cycle, layer, candidates, divs, mask)
            student = apply_mask(student, mask)
            history.append(record)
        student = retrain(student, mask, teacher_outputs, probe, cfg, spec, cols)
        final_div = divergence(nn.forward(student, probe.inputs, cols), teacher_outputs, spec)
        for i in range(snapshot[2], len(history)):
            history[i].retrain_divergence = final_div
        if cfg.divergence_budget is not None and final_div > cfg.divergence_budget:
            student, mask, keep, final_div = snapshot
            del history[keep:]
            status = "divergence_budget"
            break
    else:
        status = "cycle_limit"
    return RunResult(student, mask, history, status, final_div)


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------

def combinations_count(n: int, k: int) -> int:
    """Exact binomial coefficient (arbitrary precision)."""
    if k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    return math.comb(n, k)


def weight_histogram(net: Network, bins: int, mask: Optional[SparsityMask] = None,
                     layer: Optional[int] = None):
    """Histogram of surviving (unmasked) parameter values over equal-width
    bins spanning their [min, max]. Returns (counts, bin_edges)."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    layers = [layer] if layer is not None else net.param_layer_indices()
    values = []
    for i in layers:
        flat = net.layers[i].flat_params()
        if mask is not None and i in mask.bits:
            flat = flat[~mask.layer_bits(i)]
        values.append(flat)
    values = np.concatenate(values) if values else np.empty(0)
    if values.size == 0:
        raise ValueError("no surviving weights to histogram")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.histogram(values, bins=bins, range=(lo, hi))


# The history CSV's columns in order, each with the type it parses to.
HISTORY_COLUMNS = {"cycle": int, "layer": int, "sparsity_before": float,
                   "sparsity_after": float, "trials": int, "mean": float, "std": float,
                   "best": float, "committed_size": int, "retrain_divergence": float}


def write_history(history: Sequence[CycleRecord], path: str):
    """Plot-ready CSV of per-cycle trial statistics; formatting is exact
    (repr round-trip), so identical runs produce identical bytes."""
    text = io.StringIO(newline="")  # first: a failure leaves no file behind
    writer = csv.writer(text)
    writer.writerow(HISTORY_COLUMNS)
    for r in history:
        row = (r.cycle, r.layer, r.sparsity_before, r.sparsity_after,
               r.trial_divergences.size, r.mean, r.std, r.best_divergence,
               r.committed.size, r.retrain_divergence)
        writer.writerow(repr(kind(v)) for kind, v in zip(HISTORY_COLUMNS.values(), row))
    with open(path, "w", newline="") as f:
        f.write(text.getvalue())


def read_history(path: str) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"history file {path} has no rows")
    return [{name: kind(row[name]) for name, kind in HISTORY_COLUMNS.items()}
            for row in rows]
