"""Branch prediction: 2-bit counters, the interleaved BTB, extra predictors."""

from repro.branch.btb import (
    BranchTargetBuffer,
    BTBPrediction,
    BTBStats,
)
from repro.branch.counters import (
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
    WEAK_NOT_TAKEN,
    WEAK_TAKEN,
    TwoBitCounter,
)
from repro.branch.ras import ReturnAddressStack
from repro.branch.predictors import (
    AlwaysTaken,
    DirectionPredictor,
    GShare,
    StaticBTFNT,
    TwoLevelLocal,
)

__all__ = [
    "AlwaysTaken",
    "BTBPrediction",
    "BTBStats",
    "BranchTargetBuffer",
    "DirectionPredictor",
    "GShare",
    "ReturnAddressStack",
    "STRONG_NOT_TAKEN",
    "STRONG_TAKEN",
    "StaticBTFNT",
    "TwoLevelLocal",
    "TwoBitCounter",
    "WEAK_NOT_TAKEN",
    "WEAK_TAKEN",
]
