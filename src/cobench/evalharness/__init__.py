from .endpoint import EndpointConfig, evaluate, evaluate_endpoint, request_samples
from .metrics import (
    Candidate,
    EvalRecord,
    MetricsSummary,
    bon_select,
    build_candidate,
    build_record,
    metrics,
    size_tier,
    solution_gap,
)
from .mock import MockPolicyConfig, mock_policy
from .sft import export_sft, sft_records

__all__ = [
    "Candidate",
    "EndpointConfig",
    "EvalRecord",
    "MetricsSummary",
    "MockPolicyConfig",
    "bon_select",
    "build_candidate",
    "build_record",
    "evaluate",
    "evaluate_endpoint",
    "export_sft",
    "metrics",
    "mock_policy",
    "request_samples",
    "sft_records",
    "size_tier",
    "solution_gap",
]
