"""Head-to-head comparison of scheduling algorithms over many instances.

The paper's headline numbers (Table I, Figure 1) are aggregate degradation
factors.  This module complements them with the statistics reviewers usually
ask for next: per-algorithm summary statistics with confidence intervals,
win fractions, and pairwise dominance ratios.

The input is deliberately loose: any sequence of per-instance mappings
``algorithm name -> maximum bounded stretch`` works, which is exactly what
:meth:`repro.campaign.executor.InstanceResult.max_stretches` returns.  This
keeps :mod:`repro.analysis` free of imports from :mod:`repro.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.metrics import degradation_factors
from ..exceptions import ReproError
from .stats import SummaryStatistics, bootstrap_confidence_interval, summarize

__all__ = ["AlgorithmComparison", "compare_instances"]


@dataclass(frozen=True)
class AlgorithmComparison:
    """Aggregate comparison of a fixed algorithm set over many instances."""

    algorithms: Tuple[str, ...]
    #: Per-instance maximum stretches, one mapping per instance.
    per_instance_stretch: Tuple[Dict[str, float], ...]
    #: Per-instance degradation factors, one mapping per instance.
    per_instance_degradation: Tuple[Dict[str, float], ...]

    # -- aggregate views --------------------------------------------------------
    @property
    def num_instances(self) -> int:
        return len(self.per_instance_stretch)

    def degradation_values(self, algorithm: str) -> List[float]:
        """Degradation factors of one algorithm across all instances."""
        self._check_algorithm(algorithm)
        return [mapping[algorithm] for mapping in self.per_instance_degradation]

    def degradation_summary(self, algorithm: str) -> SummaryStatistics:
        """Summary statistics of an algorithm's degradation factors."""
        return summarize(self.degradation_values(algorithm))

    def degradation_confidence_interval(
        self, algorithm: str, *, confidence: float = 0.95, seed: int = 0
    ) -> Tuple[float, float]:
        """Bootstrap confidence interval on the mean degradation factor."""
        return bootstrap_confidence_interval(
            self.degradation_values(algorithm), confidence=confidence, seed=seed
        )

    def win_fraction(self, algorithm: str) -> float:
        """Fraction of instances on which the algorithm achieves the best stretch."""
        self._check_algorithm(algorithm)
        wins = 0
        for mapping in self.per_instance_stretch:
            if mapping[algorithm] == min(mapping.values()):
                wins += 1
        return wins / self.num_instances

    def best_algorithm(self) -> str:
        """Algorithm with the lowest mean degradation factor."""
        means = {
            name: float(np.mean(self.degradation_values(name)))
            for name in self.algorithms
        }
        return min(means, key=means.get)

    def ranking(self) -> List[Tuple[str, float]]:
        """Algorithms sorted by increasing mean degradation factor."""
        pairs = [
            (name, float(np.mean(self.degradation_values(name))))
            for name in self.algorithms
        ]
        return sorted(pairs, key=lambda pair: pair[1])

    def dominance_ratio(self, better: str, worse: str) -> float:
        """Geometric-mean ratio of ``worse``'s stretch to ``better``'s stretch.

        A value of 10 means ``worse`` suffers, on average (geometric), a
        maximum stretch ten times larger than ``better`` on the same
        instances — the "orders of magnitude" statements of the paper.
        """
        self._check_algorithm(better)
        self._check_algorithm(worse)
        ratios = []
        for mapping in self.per_instance_stretch:
            if mapping[better] <= 0:
                raise ReproError(f"non-positive stretch for {better!r}")
            ratios.append(mapping[worse] / mapping[better])
        return float(np.exp(np.mean(np.log(ratios))))

    def pairwise_dominance(self) -> Dict[Tuple[str, str], float]:
        """Dominance ratio for every ordered algorithm pair."""
        matrix: Dict[Tuple[str, str], float] = {}
        for better in self.algorithms:
            for worse in self.algorithms:
                if better != worse:
                    matrix[(better, worse)] = self.dominance_ratio(better, worse)
        return matrix

    def _check_algorithm(self, algorithm: str) -> None:
        if algorithm not in self.algorithms:
            raise ReproError(
                f"unknown algorithm {algorithm!r}; comparison covers {self.algorithms}"
            )


def compare_instances(
    per_instance_stretch: Sequence[Mapping[str, float]]
) -> AlgorithmComparison:
    """Build an :class:`AlgorithmComparison` from per-instance stretch mappings.

    Every mapping must cover the same algorithm set and contain strictly
    positive maximum stretches.
    """
    if not per_instance_stretch:
        raise ReproError("need at least one instance to compare algorithms")
    algorithms = tuple(sorted(per_instance_stretch[0]))
    if not algorithms:
        raise ReproError("instances must report at least one algorithm")
    stretch_maps: List[Dict[str, float]] = []
    degradation_maps: List[Dict[str, float]] = []
    for index, mapping in enumerate(per_instance_stretch):
        if tuple(sorted(mapping)) != algorithms:
            raise ReproError(
                f"instance {index} reports algorithms {sorted(mapping)} but the "
                f"first instance reports {list(algorithms)}"
            )
        as_dict = {name: float(value) for name, value in mapping.items()}
        for name, value in as_dict.items():
            if value <= 0:
                raise ReproError(
                    f"instance {index}: non-positive stretch {value} for {name!r}"
                )
        stretch_maps.append(as_dict)
        degradation_maps.append(degradation_factors(as_dict))
    return AlgorithmComparison(
        algorithms=algorithms,
        per_instance_stretch=tuple(stretch_maps),
        per_instance_degradation=tuple(degradation_maps),
    )
