"""Exact bigness/nefness tests for divisor classes on projective bundles
over curves, section-count oracles, and blow-up certificates."""

from .blowups import (
    BigAnticanonicalCertificate,
    BlownUpSurface,
    BlowupScenario,
    ExtClass,
    certify_big_anticanonical,
    check_class,
)
from .bundles import (
    Curve,
    SplitBundle,
    frobenius_pullback,
    hn_data,
    min_destabilizing_e,
    symmetric_power_stats,
)
from .sections import (
    H0Interval,
    Verdict,
    growth_classify,
    h0_class_interval,
    h0_interval_curve,
    volume,
)
from .surfaces import (
    NumClass,
    RuledSurface,
    big_test,
    canonical_class,
    intersect,
    nef_test,
    pseff_test,
)

__all__ = [
    "BigAnticanonicalCertificate",
    "BlownUpSurface",
    "BlowupScenario",
    "Curve",
    "ExtClass",
    "H0Interval",
    "NumClass",
    "RuledSurface",
    "SplitBundle",
    "Verdict",
    "big_test",
    "canonical_class",
    "certify_big_anticanonical",
    "check_class",
    "frobenius_pullback",
    "growth_classify",
    "h0_class_interval",
    "h0_interval_curve",
    "hn_data",
    "intersect",
    "min_destabilizing_e",
    "nef_test",
    "pseff_test",
    "symmetric_power_stats",
    "volume",
]
