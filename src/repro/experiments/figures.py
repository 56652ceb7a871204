"""Generators for every figure of the paper's evaluation section.

Each ``figN`` function consumes an :class:`ExperimentContext`, runs (or
fetches) the searches that figure is a view of, and returns a
``(data, text)`` pair: ``data`` is a plain dict of the series the paper
plots, ``text`` is an ASCII rendering.  Benchmarks assert the paper's
qualitative claims on ``data`` and print ``text``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..bo.pareto import best_accuracy_under, hypervolume
from ..bo.scalarization import equal_score_accuracy, scalarize
from ..nas.final_training import train_final_models
from ..nas.results import SearchResult
from ..nas.search import BOMPNAS
from ..quant.size import bitwidth_by_layer, model_size_bits
from ..space.builder import build_model
from ..space.genome import MixedPrecisionGenome
from ..space.space import SearchSpace
from .reporting import ascii_scatter, bitwidth_histogram, format_front
from .runner import ExperimentContext


def seed_point(ctx: ExperimentContext, dataset: str) -> Tuple[float, float]:
    """(accuracy, size_kB) of the seed MobileNetV2 at homogeneous 8-bit.

    The seed is early-trained with the search protocol and PTQ'd to 8 bits,
    exactly how the paper's figures anchor their seed marker.
    """
    def build() -> SearchResult:
        config = ctx.config(dataset, "fixed8_ptq")
        evaluator = BOMPNAS(config, ctx.dataset(dataset))
        seed_genome = MixedPrecisionGenome(
            evaluator.space.seed_arch(), evaluator.space.seed_policy(8))
        trial = evaluator.evaluate_candidate(seed_genome, index=0)[0]
        return SearchResult(config=config, trials=[trial])

    trial = ctx.cached_result(f"seed_point::{dataset}", build).trials[0]
    return trial.accuracy, trial.size_kb


def _scatter_data(result: SearchResult) -> Dict:
    """Candidate series split into early/late halves (the color-by-time
    encoding of the paper's scatter figures)."""
    n = len(result.trials)
    half = n // 2
    return {
        "early_candidates": [(t.size_kb, t.accuracy)
                             for t in result.trials[:half]],
        "late_candidates": [(t.size_kb, t.accuracy)
                            for t in result.trials[half:]],
        "candidate_front": result.candidate_front(),
        "final_models": [(m.size_kb, m.accuracy)
                         for m in result.final_models],
        "final_front": result.final_front(),
        "scores": [t.score for t in result.trials],
        "sizes": [t.size_kb for t in result.trials],
        "accuracies": [t.accuracy for t in result.trials],
    }


def _render_search_scatter(data: Dict, seed: Tuple[float, float],
                           title: str) -> str:
    series = {
        "early": data["early_candidates"],
        "late": data["late_candidates"],
        "final": data["final_models"],
        "seed": [(seed[1], seed[0])],
    }
    series = {k: v for k, v in series.items() if v}
    return ascii_scatter(series, title=title)


def _search_figure(ctx: ExperimentContext, dataset: str, mode: str,
                   title: str) -> Tuple[Dict, str]:
    """Shared machinery of Figs. 2/4/6/7: one search mode's scatter."""
    result = ctx.run_search(dataset, mode)
    seed = seed_point(ctx, dataset)
    data = _scatter_data(result)
    data["seed_point"] = seed
    data["ref_accuracy"] = ctx.config(dataset, mode).scalarization.ref_accuracy
    data["ref_model_size"] = ctx.config(
        dataset, mode).scalarization.ref_model_size
    # equal-score contour through the seed point (one of the dotted lines)
    seed_score = scalarize(seed[0], seed[1] * 8 * 1024,
                           ctx.config(dataset, mode).scalarization)
    contour_sizes = np.geomspace(max(min(data["sizes"]), 0.5),
                                 max(data["sizes"]), 8)
    contour = equal_score_accuracy(seed_score, contour_sizes * 8 * 1024,
                                   ctx.config(dataset, mode).scalarization)
    data["equal_score_contour"] = list(zip(contour_sizes.tolist(),
                                           contour.tolist()))
    text = "\n".join([
        _render_search_scatter(data, seed, title),
        format_front(data["final_front"], "final Pareto front"),
        f"seed point: acc={seed[0]:.3f}, size={seed[1]:.2f} kB",
    ])
    return data, text


def fig2(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 2: MP QAFT-aware NAS on CIFAR-10."""
    return _search_figure(ctx, "cifar10", "mp_qaft",
                          "Fig. 2 — QAFT-aware NAS (CIFAR-10)")


def fig3(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 3: per-layer bitwidths of the final Pareto models."""
    result = ctx.run_search("cifar10", "mp_qaft")
    models = result.final_models or result.pareto_trials()
    assignments: List[Dict[str, int]] = []
    for entry in models:
        genome = entry.genome
        model = build_model(genome.arch,
                            ctx.dataset("cifar10").num_classes)
        assignments.append(bitwidth_by_layer(model, genome.policy))
    bit_choices = list(range(4, 9))
    # histogram over slots shared by all models (slot sets differ when
    # blocks are absent, so render per-model assignments too)
    data = {
        "assignments": assignments,
        "bit_choices": bit_choices,
        "min_bits_per_model": [min(a.values()) for a in assignments],
        "mean_bits_per_model": [float(np.mean(list(a.values())))
                                for a in assignments],
    }
    per_slot = [{slot: bits for slot, bits in a.items()}
                for a in assignments]
    common_slots = set(per_slot[0])
    for a in per_slot[1:]:
        common_slots &= set(a)
    common = [{slot: a[slot] for slot in sorted(common_slots)}
              for a in per_slot]
    text = bitwidth_histogram(common, bit_choices) if common_slots else ""
    lines = [text, "", "per-model bitwidth summary:"]
    for i, a in enumerate(assignments):
        lines.append(f"  model {i}: min={min(a.values())} "
                     f"mean={np.mean(list(a.values())):.2f} "
                     f"max={max(a.values())}")
    return data, "\n".join(lines)


def fig4(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 4: MP QAFT-aware NAS on CIFAR-100 (ref_model_size = 6)."""
    return _search_figure(ctx, "cifar100", "mp_qaft",
                          "Fig. 4 — QAFT-aware NAS (CIFAR-100)")


def ptq_post_qaft_result(ctx: ExperimentContext, dataset: str
                         ) -> SearchResult:
    """PTQ-searched Pareto models re-finalized *with* QAFT.

    This is Fig. 5's middle curve, "MP PTQ-NAS (QAFT)": the architectures
    come from the PTQ-aware search, QAFT is only applied afterwards.
    Final training is rng-paired with the plain-PTQ finals (same seed and
    trial indices), so per-trial accuracy differences isolate the QAFT
    treatment.
    """
    def build() -> SearchResult:
        ptq_result = ctx.run_search(dataset, "mp_ptq")
        config = ctx.config(dataset, "mp_ptq")
        evaluator = BOMPNAS(config, ctx.dataset(dataset))
        finals = train_final_models(evaluator, ptq_result.pareto_trials(),
                                    force_qaft=True)
        return SearchResult(config=config,
                            trials=list(ptq_result.pareto_trials()),
                            final_models=finals)

    return ctx.cached_result(f"ptq_post_qaft::{dataset}", build)


def ptq_post_qaft_front(ctx: ExperimentContext, dataset: str
                        ) -> List[Tuple[float, float]]:
    """Front view of :func:`ptq_post_qaft_result`."""
    return ptq_post_qaft_result(ctx, dataset).final_front()


def fig5(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 5: MP PTQ-NAS vs MP PTQ-NAS (QAFT) vs MP QAFT-NAS fronts.

    Besides the three fronts, the data includes the *paired* comparison on
    the PTQ-searched architectures: each Pareto model finalized twice from
    identical full-precision training, once with plain PTQ and once with
    post-hoc QAFT.  The per-pair accuracy delta is the treatment effect
    Fig. 5's middle curve visualizes, free of cross-search noise.
    """
    ptq = ctx.run_search("cifar10", "mp_ptq")
    qaft = ctx.run_search("cifar10", "mp_qaft")
    post = ptq_post_qaft_result(ctx, "cifar10")
    fronts = {
        "MP PTQ-NAS": ptq.final_front(),
        "MP PTQ-NAS (QAFT)": post.final_front(),
        "MP QAFT-NAS": qaft.final_front(),
    }
    ptq_by_trial = {m.trial_index: m for m in ptq.final_models}
    pairs = []
    for model in post.final_models:
        partner = ptq_by_trial.get(model.trial_index)
        if partner is not None:
            pairs.append({
                "trial_index": model.trial_index,
                "size_kb": model.size_kb,
                "min_bits": model.genome.policy.min_bits(),
                "ptq_accuracy": partner.accuracy,
                "qaft_accuracy": model.accuracy,
                "delta": model.accuracy - partner.accuracy,
            })
    data = {
        "fronts": fronts,
        "hypervolumes": _shared_hypervolumes(fronts),
        "paired": pairs,
    }
    series = {name: [(size, acc) for acc, size in front]
              for name, front in fronts.items() if front}
    lines = [ascii_scatter(series,
                           title="Fig. 5 — Pareto fronts (CIFAR-10, MP)")]
    for name, front in fronts.items():
        lines.append(format_front(front, name))
    for pair in pairs:
        lines.append(
            f"paired trial {pair['trial_index']}: PTQ "
            f"{pair['ptq_accuracy']:.3f} -> +QAFT "
            f"{pair['qaft_accuracy']:.3f} (min {pair['min_bits']} bits, "
            f"{pair['size_kb']:.1f} kB)")
    return data, "\n".join(lines)


def fig6(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 6: MP PTQ-aware NAS scatter (search avoids tiny models).

    Besides the scatter, the data carries each candidate's *quantization
    gap* — its full-precision accuracy minus its deployed accuracy — for
    both the PTQ-aware and the QAFT-aware search.  The gap is a
    within-candidate measure: in the PTQ search low-bit candidates keep
    their full PTQ damage, while in the QAFT search the in-loop fine-tuning
    epoch recovers it, which is exactly why the PTQ search drifts toward
    larger/higher-bit models in the paper.
    """
    data, text = _search_figure(ctx, "cifar10", "mp_ptq",
                                "Fig. 6 — MP PTQ-aware NAS (CIFAR-10)")
    ptq = ctx.run_search("cifar10", "mp_ptq")
    qaft = ctx.run_search("cifar10", "mp_qaft")
    data["mean_sampled_size"] = float(np.mean(data["sizes"]))
    data["qaft_mean_sampled_size"] = float(
        np.mean([t.size_kb for t in qaft.trials]))

    def gaps(result):
        return [{"min_bits": t.genome.policy.min_bits(),
                 "gap": t.fp_accuracy - t.accuracy,
                 "size_kb": t.size_kb}
                for t in result.trials]

    data["ptq_gaps"] = gaps(ptq)
    data["qaft_gaps"] = gaps(qaft)
    low_ptq = [g["gap"] for g in data["ptq_gaps"] if g["min_bits"] <= 5]
    low_qaft = [g["gap"] for g in data["qaft_gaps"] if g["min_bits"] <= 5]
    data["mean_low_bit_gap_ptq"] = (float(np.mean(low_ptq))
                                    if low_ptq else 0.0)
    data["mean_low_bit_gap_qaft"] = (float(np.mean(low_qaft))
                                     if low_qaft else 0.0)
    text += (f"\nmean sampled size: PTQ search "
             f"{data['mean_sampled_size']:.2f} kB vs QAFT search "
             f"{data['qaft_mean_sampled_size']:.2f} kB"
             f"\nmean low-bit quantization gap (fp acc - deployed acc): "
             f"PTQ {data['mean_low_bit_gap_ptq']:+.3f} vs QAFT "
             f"{data['mean_low_bit_gap_qaft']:+.3f}")
    return data, text


def fig7(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 7: fixed 4-bit QAFT-aware NAS scatter."""
    data, text = _search_figure(ctx, "cifar10", "fixed4_qaft",
                                "Fig. 7 — 4-bit QAFT-aware NAS (CIFAR-10)")
    # what each sampled architecture would weigh at homogeneous 8-bit —
    # the mechanical size advantage 4-bit quantization buys
    result = ctx.run_search("cifar10", "fixed4_qaft")
    search_space = SearchSpace("cifar10")
    eight_bit = search_space.seed_policy(8)
    sizes_at_8bit = []
    for trial in result.trials:
        model = build_model(trial.genome.arch,
                            ctx.dataset("cifar10").num_classes)
        sizes_at_8bit.append(model_size_bits(model, eight_bit) / (8 * 1024))
    data["sizes_at_8bit"] = sizes_at_8bit
    return data, text


def fig8(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Fig. 8: Pareto fronts of every ablation variant."""
    fronts = {
        "8-bit PTQ-NAS": ctx.run_search("cifar10",
                                        "fixed8_ptq").final_front(),
        "MP PTQ-NAS": ctx.run_search("cifar10", "mp_ptq").final_front(),
        "MP PTQ-NAS (QAFT)": ptq_post_qaft_front(ctx, "cifar10"),
        "4-bit QAFT-NAS": ctx.run_search("cifar10",
                                         "fixed4_qaft").final_front(),
        "MP QAFT-NAS": ctx.run_search("cifar10", "mp_qaft").final_front(),
    }
    small_budget = _small_size_budget(fronts)
    data = {
        "fronts": fronts,
        "hypervolumes": _shared_hypervolumes(fronts),
        "small_budget_kb": small_budget,
        "best_acc_under_budget": {
            name: best_accuracy_under(front, small_budget)
            for name, front in fronts.items()},
        "smallest_size": {
            name: (min(size for _, size in front) if front else float("inf"))
            for name, front in fronts.items()},
    }
    series = {name: [(size, acc) for acc, size in front]
              for name, front in fronts.items() if front}
    lines = [ascii_scatter(series, title="Fig. 8 — ablation Pareto fronts")]
    for name, front in fronts.items():
        lines.append(format_front(front, name))
    return data, "\n".join(lines)


def _shared_hypervolumes(fronts: Dict[str, List[Tuple[float, float]]]
                         ) -> Dict[str, float]:
    """Hypervolumes against a reference point shared by all fronts.

    Without a shared reference, a front consisting of a single small model
    would get zero volume and comparisons across fronts would be
    meaningless.
    """
    sizes = [size for front in fronts.values() for _, size in front]
    ref_size = max(sizes) * 1.05 if sizes else 1.0
    return {name: hypervolume(front, ref_accuracy=0.0, ref_size=ref_size)
            for name, front in fronts.items()}


def _small_size_budget(fronts: Dict[str, List[Tuple[float, float]]]
                       ) -> float:
    """A size budget at the small end where every front has a model."""
    smallest = [min(size for _, size in front)
                for front in fronts.values() if front]
    if not smallest:
        return 10.0
    return max(smallest) * 1.25
