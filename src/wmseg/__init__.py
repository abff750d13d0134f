"""Watermark segment localization in mixed-source token streams."""

from .calibration import CertMismatch, ThresholdCert, calibrate_threshold
from .intervals import Segments
from .metrics import EvalReport, evaluate
from .schemes import PivotSeries, SchemeSpec
from .segmentation import SegmenterConfig, SegmentationResult, segment_series
from .streams import NtpModel, StreamSpec, generate_stream, read_stream_jsonl, write_stream_jsonl

__all__ = [
    "CertMismatch",
    "EvalReport",
    "NtpModel",
    "PivotSeries",
    "SchemeSpec",
    "SegmentationResult",
    "SegmenterConfig",
    "Segments",
    "StreamSpec",
    "ThresholdCert",
    "calibrate_threshold",
    "evaluate",
    "generate_stream",
    "read_stream_jsonl",
    "segment_series",
    "write_stream_jsonl",
]

__version__ = "0.1.0"
