"""Trace analyses backing Figures 6-8.

Every analysis is an incremental consumer class (a
:class:`StreamingAnalysis` subclass) with the ``update(access)`` /
``finalize()`` lifecycle, for single-pass O(1)-memory runs over
streaming traces; ``consume(trace)`` drives that lifecycle over a whole
trace.
"""

from repro.analysis.base import StreamingAnalysis
from repro.analysis.sequitur import Sequitur, SequiturGrammar
from repro.analysis.repetition import (
    MissSequenceExtractor,
    RepetitionAnalysis,
    RepetitionBreakdown,
    classify_repetition,
)
from repro.analysis.correlation import CorrelationDistanceAnalysis
from repro.analysis.joint import JointPredictabilityAnalysis

__all__ = [
    "StreamingAnalysis",
    "Sequitur",
    "SequiturGrammar",
    "MissSequenceExtractor",
    "RepetitionAnalysis",
    "RepetitionBreakdown",
    "classify_repetition",
    "CorrelationDistanceAnalysis",
    "JointPredictabilityAnalysis",
]
