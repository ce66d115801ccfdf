"""Temporal-repetition breakdown via Sequitur (Fig. 7 methodology, §5.3).

The paper classifies each element of a miss-address sequence as:

* **non-repetitive** — the address occurrence is not part of any repeated
  subsequence;
* **new** — part of the *first* occurrence of a repeated subsequence;
* **head** — the first element of a subsequent occurrence (a stream must
  be located before it can be followed, so heads are not coverable);
* **opportunity** — the remaining elements of repeated occurrences (what
  temporal streaming can actually cover).

We build the Sequitur grammar and walk the root rule: each non-terminal
reference expands to a repeated subsequence (rule utility guarantees >= 2
uses). The first encounter of a rule yields "new" tokens; later
encounters yield one "head" plus "opportunity". Terminals remaining at
the root are non-repetitive. The trace walk is a single-pass incremental
consumer (:class:`RepetitionAnalysis`): only the trailing
``max_elements`` miss/trigger block ids are retained (bounded deques),
so peak memory is set by the Sequitur input bound, not trace length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import StreamingAnalysis
from repro.analysis.sequitur import Rule, Sequitur
from repro.common.config import SystemConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.trace.events import MemoryAccess

#: classification labels in display order
CATEGORIES = ("opportunity", "head", "new", "non_repetitive")

_MEMORY = ServiceLevel.MEMORY


@dataclass(frozen=True)
class RepetitionBreakdown:
    """Fractions of sequence elements per category (sums to 1)."""

    total: int
    opportunity: float
    head: float
    new: float
    non_repetitive: float

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.opportunity, self.head, self.new, self.non_repetitive)

    def format(self) -> str:
        return (
            f"opportunity={self.opportunity:6.1%} head={self.head:6.1%} "
            f"new={self.new:6.1%} non-rep={self.non_repetitive:6.1%} "
            f"(n={self.total})"
        )


def classify_repetition(sequence: Sequence[Hashable]) -> RepetitionBreakdown:
    """Classify every element of ``sequence`` (Fig. 7 categories)."""
    n = len(sequence)
    if n == 0:
        return RepetitionBreakdown(0, 0.0, 0.0, 0.0, 0.0)
    grammar = Sequitur.build(sequence)
    counts = {c: 0 for c in CATEGORIES}
    seen_rules: Set[int] = set()

    def expand_len(rule: Rule) -> int:
        length = 0
        for value in rule.symbols():
            if isinstance(value, Rule):
                length += expand_len(value)
            else:
                length += 1
        return length

    def walk_new(rule: Rule) -> None:
        """Expand a first-encounter occurrence: tokens are 'new', except
        nested rules already seen elsewhere, which repeat."""
        for value in rule.symbols():
            if isinstance(value, Rule):
                if value.id in seen_rules:
                    counts["head"] += 1
                    counts["opportunity"] += expand_len(value) - 1
                else:
                    seen_rules.add(value.id)
                    walk_new(value)
            else:
                counts["new"] += 1

    for value in grammar.root.symbols():
        if isinstance(value, Rule):
            if value.id in seen_rules:
                counts["head"] += 1
                counts["opportunity"] += expand_len(value) - 1
            else:
                seen_rules.add(value.id)
                walk_new(value)
        else:
            counts["non_repetitive"] += 1

    total = sum(counts.values())
    assert total == n, f"classification covered {total} of {n} elements"
    return RepetitionBreakdown(
        total=n,
        opportunity=counts["opportunity"] / n,
        head=counts["head"] / n,
        new=counts["new"] / n,
        non_repetitive=counts["non_repetitive"] / n,
    )


class MissSequenceExtractor(StreamingAnalysis):
    """Incremental hierarchy replay collecting miss / trigger block ids.

    Args:
        system: cache geometry used to identify off-chip misses.
        max_elements: retain only the trailing ``max_elements`` of each
            sequence (None keeps everything): the paper traces after
            extensive warming (§5.1), and a cold prefix is dominated by
            first-traversal compulsory misses that would mask
            steady-state repetition.
    """

    def __init__(
        self, system: SystemConfig, max_elements: Optional[int] = None
    ) -> None:
        super().__init__(system)
        self.misses: Deque[int] = deque(maxlen=max_elements)
        self.triggers: Deque[int] = deque(maxlen=max_elements)

    def _observe(self, access: MemoryAccess, block: int, level,
                 generation) -> None:
        if level is _MEMORY and not access.is_write:
            self.misses.append(block)
            if generation[0]:
                self.triggers.append(block)

    def _finalize(self) -> Tuple[List[int], List[int]]:
        return list(self.misses), list(self.triggers)


class RepetitionAnalysis(MissSequenceExtractor):
    """Incremental Fig. 7 analysis: Sequitur over the trailing miss tail.

    Args:
        system: cache geometry used to identify off-chip misses.
        max_elements: Sequitur input bound (grammar inference over very
            long sequences is the dominant cost of this analysis).
        workload: name carried for symmetry with the other analyses.
    """

    def __init__(
        self,
        system: SystemConfig,
        max_elements: int = 60000,
        workload: str = "",
    ) -> None:
        super().__init__(system, max_elements)
        self.workload = workload

    def _finalize(self) -> Tuple[RepetitionBreakdown, RepetitionBreakdown]:
        misses, triggers = super()._finalize()
        return classify_repetition(misses), classify_repetition(triggers)
