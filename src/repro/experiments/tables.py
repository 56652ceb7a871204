"""Generators for every table of the paper.

Same convention as :mod:`repro.experiments.figures`: each function returns
``(data, text)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..baselines.reference import (TABLE2_BOMP_PAPER, TABLE3_BOMP_PAPER,
                                   TABLE3_REFERENCES, TABLE4_PAPER,
                                   table2_rows)
from ..nas.cost import CostModel
from ..nas.results import SearchResult
from ..space.space import SearchSpace
from .reporting import format_table
from .runner import ExperimentContext


def table1() -> Tuple[Dict, str]:
    """Table I: the search space menus and cardinalities."""
    data = {}
    lines = []
    for dataset in ("cifar10", "cifar100"):
        space = SearchSpace(dataset)
        data[dataset] = {
            "num_architectures": space.num_architectures(),
            "num_policies": space.num_policies(),
            "num_total": space.num_total(),
            "n_slots": len(space.slot_names),
        }
        lines.append(space.summary())
        lines.append("")
    data["paper_claims"] = {
        "num_architectures": 3.96e19,
        "num_policies": 1.19e16,
        "num_total_as_printed": 4.73e39,
        "num_total_consistent": 3.96e19 * 1.19e16,
    }
    lines.append("paper claims 3.96e19 archs x 1.19e16 policies; its joint "
                 "figure 4.73e39 is a typo for 4.73e35 (the product).")
    return data, "\n".join(lines)


def _best_under(result: SearchResult, size_kb: float
                ) -> Optional[Tuple[float, float]]:
    """Best final (accuracy, size) at or under a size budget (with slack).

    The paper compares "the best performing networks that are smaller than
    or similar size as the respective SotA network"; "similar" is taken as
    up to 15% above the reference size.
    """
    eligible = [(m.accuracy, m.size_kb) for m in result.final_models
                if m.size_kb <= size_kb * 1.15]
    if not eligible:
        return None
    return max(eligible)


def table2(ctx: ExperimentContext,
           include_micronas: bool = False) -> Tuple[Dict, str]:
    """Table II: Pareto models of a single search vs SotA.

    Literature rows are constants from the paper; BOMP-NAS and JASQ (repr.)
    rows are measured from this reproduction's searches.  Absolute values
    live on the synthetic surrogate's scale — the reproduced claim is the
    head-to-head on the shared search space: BOMP-NAS beats the JASQ
    reproduction at comparable model size.  ``include_micronas`` adds a
    measured μNAS-reproduction row (an extra full search).
    """
    rows: List[List] = []
    data: Dict = {"ours": {}, "literature": [], "paper_bomp": []}

    for dataset in ("cifar10", "cifar100"):
        result = ctx.run_search(dataset, "mp_qaft")
        for model in sorted(result.final_models, key=lambda m: m.size_kb):
            rows.append([dataset, "BOMP-NAS (ours, surrogate)",
                         model.accuracy * 100, model.size_kb])
        data["ours"][dataset] = [(m.accuracy, m.size_kb)
                                 for m in result.final_models]

    jasq = ctx.run_jasq("cifar10")
    for model in sorted(jasq.final_models, key=lambda m: m.size_kb):
        rows.append(["cifar10", "JASQ repr. (ours, surrogate)",
                     model.accuracy * 100, model.size_kb])
    data["ours"]["jasq_cifar10"] = [(m.accuracy, m.size_kb)
                                    for m in jasq.final_models]

    if include_micronas:
        micronas = ctx.run_micronas("cifar10")
        for model in sorted(micronas.final_models,
                            key=lambda m: m.size_kb):
            rows.append(["cifar10", "muNAS repr. (ours, surrogate)",
                         model.accuracy * 100, model.size_kb])
        data["ours"]["micronas_cifar10"] = [(m.accuracy, m.size_kb)
                                            for m in micronas.final_models]

    for entry in table2_rows():
        rows.append([entry.dataset, f"{entry.method} (paper)",
                     entry.accuracy_percent, entry.model_size_kb])
        data["literature"].append(entry)
    for entry in TABLE2_BOMP_PAPER:
        rows.append([entry.dataset, "BOMP-NAS (paper)",
                     entry.accuracy_percent, entry.model_size_kb])
        data["paper_bomp"].append(entry)

    # the reproducible head-to-head: our BOMP vs our JASQ on the same
    # search space, data, trial budget and objective.  Both engines
    # maximize the Eq. (1) score, so the best achieved score is the
    # like-for-like engine comparison; the accuracy-at-matched-size view
    # is also recorded but is hole-prone when the small final fronts of a
    # reduced-scale run don't overlap in size.
    bomp_result = ctx.run_search("cifar10", "mp_qaft")
    head_to_head = {
        "bomp_best_score": bomp_result.best_trial().score,
        "jasq_best_score": jasq.best_trial().score,
    }
    if jasq.final_models:
        budget = min(m.size_kb for m in jasq.final_models) * 1.5
        head_to_head.update({
            "budget_kb": budget,
            "bomp_best": _best_under(bomp_result, budget),
            "jasq_best": _best_under(jasq, budget),
        })
    data["head_to_head"] = head_to_head

    text = format_table(
        ["dataset", "method", "acc [%]", "size [kB]"], rows,
        title="Table II — Pareto-optimal models vs SotA")
    text += (f"\nhead-to-head best Eq.(1) score: BOMP "
             f"{head_to_head['bomp_best_score']:.3f} vs JASQ "
             f"{head_to_head['jasq_best_score']:.3f}")
    if head_to_head.get("bomp_best") and head_to_head.get("jasq_best"):
        text += (f"\nhead-to-head at <= {head_to_head['budget_kb']:.1f} kB: "
                 f"BOMP {head_to_head['bomp_best'][0]:.3f} vs "
                 f"JASQ {head_to_head['jasq_best'][0]:.3f}")
    return data, text


def _normalized_scenario_cost(ctx: ExperimentContext,
                              result: SearchResult) -> float:
    """Measured search cost extrapolated to the paper's protocol scale."""
    cost_model = CostModel()
    scale = result.config.scale  # the run's own (possibly lightened) scale
    return cost_model.normalize_to_paper_protocol(
        result.search_gpu_hours(), trials=scale.trials,
        early_epochs=scale.early_epochs, n_train=scale.n_train,
        image_size=scale.image_size)


def table3(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Table III: search cost per deployment scenario across methods."""
    rows: List[List] = []
    data: Dict = {"ours": {}, "literature": TABLE3_REFERENCES,
                  "paper_bomp": TABLE3_BOMP_PAPER}
    for entry in TABLE3_REFERENCES:
        rows.append([entry.method + " (paper)", entry.dataset,
                     f"{entry.fixed_hours:g} + {entry.per_scenario_hours:g}N"])
    for entry in TABLE3_BOMP_PAPER:
        rows.append(["BOMP-NAS (paper)", entry.dataset,
                     f"{entry.per_scenario_hours:g}N"])
    for dataset in ("cifar10", "cifar100"):
        result = ctx.run_search(dataset, "mp_qaft")
        hours = _normalized_scenario_cost(ctx, result)
        data["ours"][("bomp", dataset)] = hours
        rows.append(["BOMP-NAS (ours, simulated)", dataset,
                     f"{hours:.1f}N"])
    jasq = ctx.run_jasq("cifar10")
    jasq_hours = _normalized_scenario_cost(ctx, jasq)
    data["ours"][("jasq", "cifar10")] = jasq_hours
    rows.append(["JASQ repr. (ours, simulated)", "cifar10",
                 f"{jasq_hours:.1f}N"])
    text = format_table(["method", "dataset", "GPU-hours"], rows,
                        title="Table III — search cost per scenario")
    return data, text


def table4(ctx: ExperimentContext) -> Tuple[Dict, str]:
    """Table IV: search cost of the BOMP-NAS ablation variants."""
    modes = ("fixed8_ptq", "mp_ptq", "mp_qaft", "fixed4_qaft")
    rows: List[List] = []
    data: Dict = {"ours": {}, "paper": TABLE4_PAPER}
    for mode in modes:
        for dataset in ("cifar10", "cifar100"):
            result = ctx.run_search(dataset, mode, final_training=False)
            hours = _normalized_scenario_cost(ctx, result)
            data["ours"][(mode, dataset)] = hours
            paper_hours = TABLE4_PAPER[(mode, dataset)]
            rows.append([mode, dataset, f"{hours:.1f}N",
                         f"{paper_hours:g}N"])
    text = format_table(
        ["method", "dataset", "ours (simulated)", "paper"], rows,
        title="Table IV — ablation search costs per scenario")
    return data, text
