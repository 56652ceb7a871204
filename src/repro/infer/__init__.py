"""Integer-only inference: compile, execute, verify, and cost a model.

The deployment half of BOMP-NAS: a searched, quantized model is compiled
into an integer-only program (folded BatchNorm, fixed-point
requantization, int32 accumulation — no float arithmetic on the hot
path), executed batch-wise with :mod:`repro.obs` instrumentation,
checked against the fake-quant reference by the parity harness, and
costed by the deployment report (MACs, packed weight bytes, peak INT8
activation memory).  :mod:`repro.infer.artifact` packages all of it into
a single deployable file driven by ``repro export`` / ``repro infer``.
"""

from .artifact import (ArtifactCache, ArtifactError, CachedArtifact,
                       DeployableArtifact, artifact_from_bytes,
                       artifact_to_bytes, build_artifact, collect_bn_stats,
                       default_artifact_cache, export_run, load_artifact,
                       load_artifact_cached, restore_bn_stats, save_artifact)
from .compile import CompileError, Grid, Stage, compile_model
from .engine import ArenaExecutor, Program
from .kernels import (conv2d_int, dense_int, depthwise_conv2d_int,
                      global_avg_pool_int)
from .parity import ParityReport, StageParity, capture_reference, check_parity
from .plan import (ArenaPlan, Interval, Slot, liveness_intervals, peak_liveness,
                   plan_arena)
from .report import (DeploymentReport, LayerCost, deployment_report,
                     format_report)
from .requant import (RequantPlan, quantize_multiplier, quantize_multipliers,
                      requantize, requantize_into, rounding_doubling_high_mul,
                      rounding_right_shift)

__all__ = [
    "ArtifactCache", "ArtifactError", "CachedArtifact",
    "DeployableArtifact", "artifact_from_bytes",
    "artifact_to_bytes", "build_artifact", "collect_bn_stats", "export_run",
    "default_artifact_cache", "load_artifact", "load_artifact_cached",
    "restore_bn_stats", "save_artifact",
    "CompileError", "Grid", "Stage", "compile_model",
    "ArenaExecutor", "Program",
    "conv2d_int", "dense_int", "depthwise_conv2d_int",
    "global_avg_pool_int",
    "ParityReport", "StageParity", "capture_reference", "check_parity",
    "ArenaPlan", "Interval", "Slot", "liveness_intervals", "peak_liveness",
    "plan_arena",
    "DeploymentReport", "LayerCost", "deployment_report", "format_report",
    "RequantPlan", "quantize_multiplier", "quantize_multipliers",
    "requantize", "requantize_into", "rounding_doubling_high_mul",
    "rounding_right_shift",
]
