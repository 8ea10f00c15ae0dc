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

When the tail's first layer is a dense layer whose trial GEMM is large and
wide enough (`STACK_MIN_GEMM`, `STACK_COLUMNS`), the trials on it share one
GEMM per chunk, `acts @ [W_1 | ... | W_K]`, so the probe is packed once per
chunk and not once per trial; each trial's column slice has the bits of its
own GEMM, and the rest of its tail runs on that slice.

When layer 0 is a conv, `run` evolves its `patch_form` instead: the probe
becomes its im2col patches, built once, and layer 0 a 1x1 conv on them, so
the teacher outputs, each sweep's front, each trial on layer 0 and each
retraining step read the same rows without building them. The outputs have
the same bits, and the student gets layer 0's own shape back.

Every trial draws from its own RNG stream keyed by (master_seed, cycle, layer,
trial), so histories replay bit-identically regardless of evaluation order or
worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn
from .binio import write_file
from .datasets import ProbeSet
from .nn import Network
from .sparsity import CandidateSet, SparsityMask, apply_mask, merge, prunable_indices, sparsity

# The largest probe patch tensor, in bytes, that `patch_form` builds: a
# 1,024-item 28x28 probe under a 3x3 kernel needs 58 MB per input channel, so
# one channel fits and three do not. Above it, every conv call on the probe
# builds its own im2col slices.
IM2COL_KEEP_BYTES = 64 << 20

# The trials on a tail's first layer share one GEMM per chunk when that layer
# is a dense layer whose one-trial GEMM, rows * in * out, is above
# STACK_MIN_GEMM and whose out is a multiple of STACK_COLUMNS. On OpenBLAS
# 0.3.31 (AVX-512 kernels, 1 to 3 threads) each trial's column slice of such a
# stacked GEMM had the bits of its own GEMM in every case tried. At 100^3 and
# below, its small-matrix kernel sums in another order (128x400x10 differs),
# and above it widths of 21-39 that are not multiples of 8 differed too.
STACK_MIN_GEMM = 1 << 20
STACK_COLUMNS = 8
# The bytes of stacked weights and outputs a chunk holds: ten trials of a
# 1,024-row probe on a 784->32 layer (463 KB each). Each worker fills one
# chunk's buffers at a time, so the chunk count sets the load balance.
STACK_CHUNK_BYTES = 5_000_000


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
                       spec: DivergenceSpec) -> float:
    """Divergence of `student` on `inputs` with the candidate's indices
    zeroed; nothing else is masked. The student is never modified: the
    candidate's layer gets fresh tensors on a shallow copy."""
    layer = student.layers[cand.layer]
    flat = layer.flat_params()
    flat[cand.indices] = 0.0
    scratch = student.replace_layer(cand.layer, layer.with_flat_params(flat))
    return divergence(nn.forward(scratch, inputs), teacher_outputs, spec)


def stack_size(layer: nn.Layer, rows: int) -> int:
    """Trials per stacked GEMM for candidates on `layer` as a tail's first
    layer over `rows` input rows, or 0 when each trial runs on its own."""
    if not isinstance(layer, nn.Dense):
        return 0
    n_in, n_out = layer.weights.shape
    if rows * n_in * n_out <= STACK_MIN_GEMM or n_out % STACK_COLUMNS:
        return 0
    return max(1, STACK_CHUNK_BYTES // (8 * n_out * (rows + n_in)))


def evaluate_trials(student: Network, mask: SparsityMask,
                    candidates: Sequence[CandidateSet],
                    teacher_outputs: np.ndarray, probe: ProbeSet, spec: DivergenceSpec,
                    workers: int = 1) -> np.ndarray:
    """Divergence per candidate, each zeroed on top of the mask; parallel
    execution is bit-identical to sequential because trials are independent
    and results keep trial order.

    The mask is applied once, and the layers in front of the first candidate
    layer run once on the probe: every trial evaluates only the tail of the
    network from that layer on, with its candidate re-indexed to the tail.
    The trials on the tail's first layer run in chunks of `stack_size` if it
    is above 0, each chunk one GEMM; every other trial is `evaluate_candidate`."""
    masked = apply_mask(student, mask)
    front = min((c.layer for c in candidates), default=0)
    acts = (nn.forward(Network(masked.layers[:front], masked.input_shape), probe.inputs)
            if front else probe.inputs)
    tail = Network(masked.layers[front:], acts.shape[1:])
    tail_cands = ([CandidateSet(c.layer - front, c.indices) for c in candidates]
                  if front else candidates)
    rows = acts.shape[0]
    per = stack_size(tail.layers[0], rows) if candidates else 0
    stacks = [per > 0 and c.layer == 0 for c in tail_cands]
    on_first = [i for i, s in enumerate(stacks) if s]
    chunks = [on_first[lo:lo + per] for lo in range(0, len(on_first), per or 1)]
    buffers = queue.SimpleQueue()  # one pair per chunk that can run at once
    if chunks:
        first = tail.layers[0]
        n_in, n_out = first.weights.shape
        rest = Network(tail.layers[1:], (n_out,))
        for _ in range(min(max(workers, 1), len(chunks))):
            buffers.put((np.empty(n_in * per * n_out), np.empty(rows * per * n_out)))

    def stacked(chunk):
        """The chunk's trials as one GEMM: each trial's weights with its
        candidate zeroed in its own column block, its bias added to its
        slice of the output in place."""
        k = len(chunk)
        weights, outputs = buffers.get()
        try:
            w = weights[:n_in * k * n_out].reshape(n_in, k, n_out)
            w[...] = first.weights[:, None, :]
            bias = np.empty((k, n_out))
            bias[...] = first.bias
            for t, i in enumerate(chunk):
                idx = tail_cands[i].indices
                cut = np.searchsorted(idx, first.weights.size)
                w[idx[:cut] // n_out, t, idx[:cut] % n_out] = 0.0
                bias[t, idx[cut:] - first.weights.size] = 0.0
            out = outputs[:rows * k * n_out].reshape(rows, k, n_out)
            np.matmul(acts, w.reshape(n_in, k * n_out), out=out.reshape(rows, k * n_out))
            divs = []
            for t in range(k):
                y = out[:, t]
                y += bias[t]
                if not np.isfinite(y).all():  # nn.forward's check on layer 0
                    raise FloatingPointError(
                        f"non-finite values produced by layer 0 ({first.kind})")
                divs.append(divergence(nn.forward(rest, y), teacher_outputs, spec))
            return divs
        finally:
            buffers.put((weights, outputs))

    def one_by_one(chunk):
        return [evaluate_candidate(tail, tail_cands[i], teacher_outputs, acts, spec)
                for i in chunk]

    tasks = [(stacked, c) for c in chunks]
    tasks += [(one_by_one, [i]) for i, s in enumerate(stacks) if not s]

    def run_task(task):
        return task[0](task[1])

    if workers <= 1 or len(tasks) < 2:
        results = [run_task(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_task, tasks))
    divs = np.empty(len(candidates), dtype=np.float64)
    for (_, chunk), values in zip(tasks, results):
        divs[chunk] = values
    return divs


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
            start_div: float) -> tuple[Network, float]:
    """SGD on the divergence toward the teacher outputs; masked positions stay
    zero. `start_div` is the divergence of the masked input network, as the
    sweep that committed the mask measured it. Returns the best parameters
    seen and their divergence, so the result never diverges more than the
    input network, which is never modified. A step or epoch that goes
    non-finite ends the retraining (the next forward pass raises), and the best
    network so far stands."""
    if cfg.retrain_epochs <= 0:
        return student, start_div
    inputs = probe.inputs
    n = inputs.shape[0]
    bs = min(cfg.retrain_batch_size, n)
    best_net = apply_mask(student, mask)
    net = best_net.copy()  # the one network stepped in place
    ones = Network([l.with_flat_params(np.ones(l.flat_params().size)) for l in net.layers],
                   net.input_shape)
    # 1.0 where a parameter survives, 0.0 where it is masked: masked gradients
    # are zero, so masked positions stay exactly 0.0 through every step
    keep = apply_mask(ones, mask).param_tensors()
    best_div = start_div
    try:
        for _ in range(cfg.retrain_epochs):
            for lo in range(0, n, bs):
                hi = min(lo + bs, n)
                target = teacher_outputs[lo:hi]
                _, grads = nn.value_and_grads(
                    net, inputs[lo:hi], lambda out: divergence_grad(out, target, spec))
                for g, k in zip(grads, keep):
                    g *= k
                nn.sgd_step(net, grads, cfg.retrain_lr)
            div = divergence(nn.forward(net, inputs), teacher_outputs, spec)
            if not math.isfinite(div):
                break
            if div < best_div:
                best_div = div
                best_net = net.copy()
    except FloatingPointError:
        pass
    return best_net, best_div


def patch_form(net: Network, probe: ProbeSet) -> tuple[Network, ProbeSet]:
    """When layer 0 is a conv and the probe's patch tensor fits in
    `IM2COL_KEEP_BYTES`: `net` with layer 0 as a 1x1 stride-1 conv of the same
    parameters in the same layer-flat layout, and the probe as its patches,
    `im2col(inputs)` as (n, oh, ow, kh*kw*cin). The pair computes the bits
    `net` computes on the probe, over the same GEMM rows and batch slices.
    Otherwise the two come back untouched."""
    first = net.layers[0]
    if not isinstance(first, nn.Conv2D) or probe.inputs.shape[1:] != net.input_shape:
        return net, probe
    oh, ow, _ = first.out_shape(net.input_shape)
    depth = math.prod(first.kernel.shape[:3])
    if probe.size * oh * ow * depth * 8 > IM2COL_KEEP_BYTES:
        return net, probe
    patches = first.im2col(probe.inputs).reshape(probe.size, oh, ow, depth)
    layer = nn.Conv2D(first.kernel.reshape(1, 1, depth, -1), first.bias, 1, "valid")
    return (Network([layer, *net.layers[1:]], patches.shape[1:]),
            dataclasses.replace(probe, inputs=patches))


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

    net, probe = patch_form(teacher, probe)
    teacher_outputs = nn.forward(net, probe.inputs)  # teacher is frozen
    student = net.copy()
    mask = SparsityMask.empty(net)
    history: list[CycleRecord] = []

    def done(layer):
        return sparsity(mask, layer) >= cfg.target_for(layer)

    def saturated(layer):
        pool = prunable_indices(net, layer, cfg.include_biases)
        return bool(mask.layer_bits(layer)[pool].all())

    status = "target_reached"
    final_div = divergence(nn.forward(student, probe.inputs), teacher_outputs, spec)
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
                                   probe, spec, cfg.workers)
            mask, record = select_and_commit(cycle, layer, candidates, divs, mask)
            student = apply_mask(student, mask)
            history.append(record)
        # the last sweep measured the masked student: its best divergence
        student, final_div = retrain(student, mask, teacher_outputs, probe, cfg, spec,
                                     history[-1].best_divergence)
        for i in range(snapshot[2], len(history)):
            history[i].retrain_divergence = final_div
        if cfg.divergence_budget is not None and final_div > cfg.divergence_budget:
            student, mask, keep, final_div = snapshot
            del history[keep:]
            status = "divergence_budget"
            break
    else:
        status = "cycle_limit"
    if net is not teacher:  # layer 0 in its own shape, stride and padding again
        first = teacher.layers[0].with_flat_params(student.layers[0].flat_params())
        student = Network([first, *student.layers[1:]], teacher.input_shape)
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
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(HISTORY_COLUMNS)
    for r in history:
        row = (r.cycle, r.layer, r.sparsity_before, r.sparsity_after,
               r.trial_divergences.size, r.mean, r.std, r.best_divergence,
               r.committed.size, r.retrain_divergence)
        writer.writerow(repr(kind(v)) for kind, v in zip(HISTORY_COLUMNS.values(), row))
    write_file(path, text.getvalue().encode())


def read_history(path: str) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"history file {path} has no rows")
    return [{name: kind(row[name]) for name, kind in HISTORY_COLUMNS.items()}
            for row in rows]
