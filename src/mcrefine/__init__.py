"""mcrefine: spatially refined motion-compensated prediction.

Motion compensation copies a shifted block from the previous frame;
this package additionally fits a sparse frequency-domain model to the
compensated block and its already-reconstructed spatial neighbourhood,
and uses the model's centre portion as the prediction wherever that
lowers the block error.  Three greedy approximation engines (one
function per iteration, re-projection over the selected span, and the
fast multi-select variant) share one projection core, and a small
hybrid-codec harness measures the effect on rate-distortion behaviour.
"""

from .basis import (BasisSet, ParameterError, ProjectionContext,
                    batch_context, build_basis, build_weight_mask,
                    projection_context, stack_contexts)
from .bd import BDInputError, BDResult, bd_metrics
from .codec import (DEFAULT_QPS, EncoderConfig, RDCurve, RDPoint, encode_pass,
                    encode_sequence, predict_frame, qp_to_qstep, replay_trace)
from .extrapolate import (ALGORITHMS, Diagnostics, ExtrapolationParams,
                          RefineResult, SparseModel, run, run_batch,
                          solve_subspace)
from .frame import (BlockRef, Frame, GeometryError, Plane, ProjectionLayout,
                    SampleError, build_layout, mse, psnr)
from .motion import MotionVector, SearchParams, compensate, estimate, mv_bits
from .videoio import (FormatError, SequenceSource, UnusedOptionError,
                      frame_bytes, read_frames, synth_sequence, write_frames)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BDInputError", "BDResult", "BasisSet", "BlockRef",
    "DEFAULT_QPS", "Diagnostics", "EncoderConfig", "ExtrapolationParams",
    "FormatError", "Frame", "GeometryError", "MotionVector",
    "ParameterError", "Plane", "ProjectionContext", "ProjectionLayout",
    "RDCurve", "RDPoint", "RefineResult", "SampleError",
    "SearchParams", "SequenceSource", "SparseModel", "UnusedOptionError",
    "batch_context", "bd_metrics", "build_basis", "build_layout",
    "build_weight_mask", "compensate", "encode_pass", "encode_sequence",
    "estimate",
    "frame_bytes", "mse", "mv_bits", "predict_frame", "projection_context",
    "psnr", "qp_to_qstep", "read_frames", "replay_trace", "run",
    "run_batch", "solve_subspace", "stack_contexts", "synth_sequence",
    "write_frames",
]
