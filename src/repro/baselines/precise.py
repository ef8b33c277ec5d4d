"""Precise-write drift mitigation (the Helmet-style orthogonal approach).

The paper's Section II notes that writing cells into *narrower*
resistance sub-ranges enlarges inter-state guard bands, so it takes
longer for drift to produce errors — at the price of more iterative
program-and-verify rounds per write. The paper declares this orthogonal
and does not evaluate it; the scheme ``Precise-<w>`` makes the trade
concrete. It is a plain Scrubbing policy (so it runs on the kernel):

* cells are programmed within ``mu +/- w * sigma`` with ``0 < w <= 2.746``
  (the ReadDuo default, which earns S = 8 s), and
* the safe R-sensing scrub interval is *re-derived* from the resulting
  drift statistics — precise writes legitimately earn a much longer
  interval than 8 s.

The write-latency cost of the extra P&V iterations is a platform knob
(``TimingParams.write_ns``); see
:func:`repro.experiments.extras.precise_write_comparison`.
"""

from __future__ import annotations

from ..core.policies.base import PolicyContext
from ..core.policies.scrubbing import ScrubbingPolicy
from ..core.registry import _check_precise_width, precise_scheme_name
from ..pcm.params import R_METRIC

__all__ = ["precise_write_policy"]

#: Candidate scrub intervals for the re-derived design point.
_CANDIDATE_INTERVALS = [2.0**i for i in range(2, 22)]


def precise_write_policy(
    ctx: PolicyContext,
    program_width_sigma: float = 2.0,
    ecc_strength: int = 8,
) -> ScrubbingPolicy:
    """R-sensing with narrowed programming and a re-derived scrub interval.

    Args:
        ctx: Platform/workload context.
        program_width_sigma: Half-width of the programmed range in
            sigmas; at most the ReadDuo default (2.746).
        ecc_strength: BCH strength the interval is derived for.
    """
    from ..reliability.ler import max_safe_interval

    _check_precise_width(program_width_sigma)
    narrow = R_METRIC.replace(program_width_sigma=program_width_sigma)
    interval = max_safe_interval(narrow, ecc_strength, _CANDIDATE_INTERVALS)
    if interval is None:
        raise ValueError("no safe scrub interval exists for this programming width")
    policy = ScrubbingPolicy(ctx, interval_s=interval, r_params=narrow)
    policy.name = precise_scheme_name(program_width_sigma)
    return policy
