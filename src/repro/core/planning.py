"""Planning inputs and runtime feedback for the hybrid planner.

The planner used to take an ad-hoc ``device_load=`` keyword; everything
the decision depends on besides the query now travels in one frozen
:class:`PlanningContext` — the device pressure snapshot, the EWMA
correction state learned from prior executions, and the mid-query
re-planning thresholds.  Like :class:`~repro.context.ExecutionContext`,
the context describes *how* to plan and never accumulates per-run state;
the one mutable collaborator it points at (:class:`CostCorrection`) is
shared deliberately, so every decision made under the same context
benefits from every observation.

The feedback loop (docs/adaptivity.md):

1. :meth:`HybridPlanner.decide` bakes the predicted intermediate-result
   cardinality of every candidate strategy into typed
   :class:`CostEstimate` entries on the decision.
2. At each pipeline breaker (a device batch landing host-side) the
   executor compares the observed cardinality against that estimate; a
   relative error past :attr:`ReplanPolicy.error_threshold` builds a
   :class:`CardinalityFeedback` and asks the decision to
   :meth:`~repro.core.strategy.HybridDecision.revise` itself.
3. After the run, the observed/estimated ratio feeds the
   :class:`CostCorrection` EWMA keyed by SQL text (the same key the
   ``StackRunner`` plan cache uses), so the *next* decision for the same
   statement prices the intermediate result closer to reality.
"""

from dataclasses import dataclass, replace

from repro.errors import ReproError

#: Correction factors are clamped to this band: a single wild
#: observation (an empty intermediate result against a huge estimate)
#: must not zero out — or explode — every future costing of the key.
MIN_CORRECTION = 1.0 / 1024.0
MAX_CORRECTION = 1024.0


def _clamp_factor(value):
    return max(MIN_CORRECTION, min(MAX_CORRECTION, value))


@dataclass(frozen=True)
class CostEstimate:
    """One strategy's costing, as baked into a :class:`HybridDecision`.

    ``intermediate_rows`` is the predicted cardinality crossing the
    pipeline breaker (the split node's output) — the quantity runtime
    feedback checks the estimate against; ``None`` for host-only
    placement, which has no device→host exchange.  ``raw_rows`` is the
    same prediction *before* the EWMA correction: observations feed the
    :class:`CostCorrection` against it, so the factor converges to the
    true statistics error instead of chasing its own corrections.
    """

    strategy: str                  # 'host-only' | 'full-ndp' | 'H<k>'
    c_total: float
    split_index: int = None
    intermediate_rows: int = None
    raw_rows: int = None


@dataclass(frozen=True)
class ReplanPolicy:
    """When a running query is allowed to second-guess its plan.

    ``error_threshold``
        Relative cardinality error (``max(obs/est, est/obs)``) at a
        pipeline breaker that triggers a revision.  2.0 means "off by
        2x either way".
    ``min_batches``
        Breaker observations required before acting — the first batch
        of a many-batch stream is a noisy sample.
    ``saturation_shed``
        Device core utilization at or above which an in-flight offload
        sheds to the host regardless of cardinality error (scheduler
        runs only; single runs own an idle kernel).
    ``max_replans``
        Revision budget per execution; re-planning has a real cost
        (the cancelled attempt's elapsed time) and must terminate.
    """

    error_threshold: float = 2.0
    min_batches: int = 1
    saturation_shed: float = 0.95
    max_replans: int = 1

    def __post_init__(self):
        if self.error_threshold < 1.0:
            raise ReproError("error_threshold is a ratio >= 1.0")
        if self.max_replans < 0:
            raise ReproError("max_replans must be >= 0")

    def check(self, decision, batches, batches_seen, now, saturated=None):
        """Second-guess ``decision`` at a pipeline breaker.

        ``batches`` are the split's staged device batches, of which the
        first ``batches_seen`` have landed host-side at simulated time
        ``now``.  The intermediate-result cardinality is extrapolated
        from them (exact once the device fragment finished — it executes
        eagerly and announces the batch count with the first push) and
        compared against the estimate baked into the decision.  Past
        :attr:`error_threshold` — or when ``saturated`` (drivers sharing
        a device pass whether its core is at :attr:`saturation_shed`;
        drivers owning an idle kernel leave it ``None``) — the decision
        revises itself.

        Returns ``(feedback, revised, event)`` — the observation, the
        revised decision (possibly the same strategy) and the audit
        event without its driver-specific ``action`` — or ``None`` when
        the running plan stands unquestioned.
        """
        if batches_seen < self.min_batches:
            return None
        estimate = decision.estimate_for()
        if estimate.intermediate_rows is None:
            return None
        observed_so_far = sum(len(batch) for batch in batches[:batches_seen])
        feedback = CardinalityFeedback(
            observed_rows=int(round(observed_so_far * len(batches)
                                    / batches_seen)),
            estimated_rows=estimate.intermediate_rows,
            batches_observed=batches_seen,
            batches_total=len(batches),
            raw_rows=estimate.raw_rows,
            at=now,
            device_saturated=bool(saturated))
        if feedback.error < self.error_threshold and not saturated:
            return None
        revised = decision.revise(feedback)
        event = {
            "at": now,
            "batches_observed": batches_seen,
            "batches_total": len(batches),
            "observed_rows": feedback.observed_rows,
            "estimated_rows": estimate.intermediate_rows,
            "error": round(feedback.error, 6),
        }
        if saturated is not None:
            event["device_saturated"] = saturated
        event["from"] = decision.strategy_name
        event["to"] = revised.strategy_name
        return feedback, revised, event


@dataclass(frozen=True)
class CardinalityFeedback:
    """What a pipeline breaker observed, for ``decision.revise()``.

    ``observed_rows`` extrapolates the intermediate-result cardinality
    from the batches that crossed so far (the NDP device executes its
    fragment eagerly and announces the batch count with the first push,
    so the extrapolation is exact after the device side finished).

    ``estimated_rows`` is the *corrected* prediction the running plan
    was admitted under — :attr:`error` measures how wrong the plan's
    working assumption was.  ``raw_rows`` is the uncorrected statistics
    prediction for the same node: :attr:`ratio` corrects against it, so
    a revision replaces a stale factor instead of compounding it.
    """

    observed_rows: int
    estimated_rows: int
    batches_observed: int
    batches_total: int
    raw_rows: int = None
    at: float = 0.0                 # simulated time of the observation
    device_saturated: bool = False

    @property
    def error(self):
        """Relative misestimation, ``>= 1.0`` (1.0 = spot on)."""
        observed = max(1, self.observed_rows)
        estimated = max(1, self.estimated_rows)
        return max(observed / estimated, estimated / observed)

    @property
    def ratio(self):
        """Observed-over-raw correction ratio (clamped).

        Falls back to ``estimated_rows`` when the raw prediction is
        unknown.
        """
        baseline = (self.raw_rows if self.raw_rows is not None
                    else self.estimated_rows)
        return _clamp_factor(max(1, self.observed_rows)
                             / max(1, baseline))


class CostCorrection:
    """EWMA cardinality-correction store, keyed like the plan cache.

    Maps a key (SQL text) to a multiplicative factor applied to the
    cost model's intermediate-result cardinalities.  Factors start at
    1.0 (trust the statistics) and move toward the observed/estimated
    ratio of each execution with weight ``alpha`` — pure arithmetic on
    observed counters, so identical workloads replay identical factor
    sequences (seed-determinism falls out for free).
    """

    def __init__(self, alpha=0.5):
        if not 0.0 < alpha <= 1.0:
            raise ReproError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._factors = {}
        self.observations = 0

    def factor(self, key):
        """Current correction factor for ``key`` (1.0 when unseen)."""
        return self._factors.get(key, 1.0)

    def prime(self, key, factor):
        """Seed ``key`` with an initial factor (a stale-statistics prior).

        Benches and tests use this to model an environment whose
        statistics start out wrong by a known ratio; subsequent
        :meth:`observe` calls wash the prior out at the EWMA rate.
        """
        self._factors[key] = _clamp_factor(factor)

    def observe(self, key, estimated_rows, observed_rows):
        """Fold one execution's observed cardinality into the EWMA.

        ``estimated_rows`` must be the *uncorrected* estimate (the raw
        statistics prediction), so the factor converges to the true
        statistics error instead of chasing its own corrections.
        Returns the updated factor.
        """
        if key is None:
            return 1.0
        target = _clamp_factor(max(1, observed_rows)
                               / max(1, estimated_rows))
        current = self._factors.get(key, 1.0)
        updated = _clamp_factor(
            (1.0 - self.alpha) * current + self.alpha * target)
        self._factors[key] = updated
        self.observations += 1
        return updated

    def snapshot(self):
        """JSON-ready ``{key: factor}`` view (sorted, deterministic)."""
        return {key: self._factors[key] for key in sorted(self._factors)}

    def __len__(self):
        return len(self._factors)


@dataclass(frozen=True)
class PlanningContext:
    """Immutable bundle of everything a decision depends on but the query.

    ``device_load``
        A :class:`~repro.core.cost_model.DeviceLoad` pressure snapshot,
        or ``None`` for an idle device.
    ``correction``
        A shared :class:`CostCorrection` store, or ``None`` to plan
        from raw statistics.
    ``key``
        The correction key for this query (SQL text, matching the
        ``StackRunner`` plan-cache key); ``None`` disables lookup.
    ``replan``
        A :class:`ReplanPolicy` enabling mid-query re-planning, or
        ``None`` — adaptivity off, byte-identical to builds without the
        feature (the ``NULL_TRACER``/``NULL_INJECTOR`` convention).
    ``factor_override``
        Pins the correction factor regardless of the store; used by
        ``revise()`` to re-price with the just-observed ratio.
    """

    device_load: object = None
    correction: object = None
    key: str = None
    replan: object = None
    factor_override: float = None

    @classmethod
    def coerce(cls, context=None):
        """Normalise an optional ``context`` argument."""
        if context is None:
            return NULL_PLANNING
        if not isinstance(context, PlanningContext):
            raise ReproError(
                f"context must be a PlanningContext, got "
                f"{type(context).__name__}")
        return context

    def correction_factor(self):
        """The cardinality correction this context plans under."""
        if self.factor_override is not None:
            return _clamp_factor(self.factor_override)
        if self.correction is not None and self.key is not None:
            return self.correction.factor(self.key)
        return 1.0

    def with_feedback(self, feedback):
        """A copy pricing with ``feedback``'s observed ratio pinned."""
        return replace(self, factor_override=feedback.ratio)


#: The do-nothing planning context: idle device, raw statistics,
#: adaptivity off.
NULL_PLANNING = PlanningContext()
