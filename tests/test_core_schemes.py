"""Unit tests for the scheme policies (read/write/scrub state machines)."""

import numpy as np
import pytest

from repro.core.policies import (
    HybridPolicy,
    IdealPolicy,
    LwtPolicy,
    MMetricPolicy,
    PolicyContext,
    ScrubbingPolicy,
    SelectPolicy,
)
from repro.core.registry import make_policy, scheme_names
from repro.memsim.config import DEFAULT_EPOCH_S, MemoryConfig
from repro.memsim.policy import ReadMode


@pytest.fixture
def ctx(small_profile, small_config):
    return PolicyContext(profile=small_profile, config=small_config, seed=11)


EPOCH = DEFAULT_EPOCH_S


class TestRegistry:
    @pytest.mark.parametrize("name", scheme_names())
    def test_every_name_constructs(self, ctx, name):
        policy = make_policy(name, ctx)
        assert policy.name == name or policy.name.startswith(name.split("-")[0])

    def test_unknown_name_raises(self, ctx):
        with pytest.raises(ValueError):
            make_policy("FancyScheme", ctx)

    def test_lwt_k_parsed(self, ctx):
        policy = make_policy("LWT-8", ctx)
        assert isinstance(policy, LwtPolicy)
        assert policy.k == 8

    def test_select_ks_parsed(self, ctx):
        policy = make_policy("Select-4:3", ctx)
        assert isinstance(policy, SelectPolicy)
        assert (policy.k, policy.s) == (4, 3)

    def test_noconv_variant(self, ctx):
        policy = make_policy("LWT-4-noconv", ctx)
        assert not policy.conversion.enabled


class TestIdeal:
    def test_reads_always_fast_and_clean(self, ctx):
        policy = IdealPolicy(ctx)
        decision = policy.on_read(1, EPOCH + 1.0)
        assert decision.mode is ReadMode.R
        assert decision.errors_seen == 0
        assert policy.scrub_interval_s is None

    def test_write_full_line(self, ctx):
        policy = IdealPolicy(ctx)
        decision = policy.on_write(1, EPOCH + 1.0)
        assert decision.full_line
        assert decision.cells_written == ctx.config.cells_per_line_write


class TestScrubbing:
    def test_default_parameters(self, ctx):
        policy = ScrubbingPolicy(ctx)
        assert policy.scrub_interval_s == 8.0
        assert policy.w == 1

    def test_w0_always_rewrites(self, ctx):
        policy = ScrubbingPolicy(ctx, w=0)
        decisions = [policy.on_scrub(line, EPOCH + 1.0) for line in range(20)]
        assert all(d.rewrite for d in decisions)

    def test_w1_rewrites_stochastically(self, ctx):
        policy = ScrubbingPolicy(ctx, w=1)
        rewrites = sum(
            policy.on_scrub(line, EPOCH + 1.0).rewrite for line in range(4000)
        )
        # Renewal hazard is a few percent per scrub.
        assert 0 < rewrites < 1000

    def test_w1_rewrite_resets_renewal_state(self, ctx):
        policy = ScrubbingPolicy(ctx, w=1)
        policy._survived[5] = 10
        policy.rng = np.random.default_rng(0)  # first random() < any hazard?
        # Force the rewrite path by direct state: survived resets on write.
        policy.on_write(5, EPOCH + 1.0)
        assert policy._survived[5] == 0

    def test_reads_are_r_mode(self, ctx):
        policy = ScrubbingPolicy(ctx)
        assert policy.on_read(1, EPOCH + 1.0).mode is ReadMode.R

    def test_rejects_bad_w(self, ctx):
        with pytest.raises(ValueError):
            ScrubbingPolicy(ctx, w=2)


class TestMMetric:
    def test_reads_are_m_mode(self, ctx):
        policy = MMetricPolicy(ctx)
        assert policy.on_read(1, EPOCH + 1.0).mode is ReadMode.M

    def test_scrub_interval_640(self, ctx):
        assert MMetricPolicy(ctx).scrub_interval_s == 640.0

    def test_scrub_rarely_rewrites_fresh_lines(self, ctx):
        policy = MMetricPolicy(ctx)
        policy.record_write(1, EPOCH)
        decision = policy.on_scrub(1, EPOCH + 640.0)
        assert not decision.rewrite  # M errors at 640 s are ~1e-5/line


class TestHybrid:
    def test_recent_line_r_read(self, ctx):
        policy = HybridPolicy(ctx)
        policy.record_write(1, EPOCH)
        decision = policy.on_read(1, EPOCH + 1.0)
        assert decision.mode is ReadMode.R

    def test_scrub_bound_keeps_age_within_interval(self, ctx):
        policy = HybridPolicy(ctx)
        # A line never written in the run: age is bounded by the W=0 sweep.
        age = policy._effective_age(123, EPOCH + 1.0)
        assert age <= policy.scrub_interval_s

    def test_scrub_always_rewrites(self, ctx):
        policy = HybridPolicy(ctx)
        assert policy.on_scrub(9, EPOCH + 1.0).rewrite

    def test_classification_boundaries(self, ctx):
        policy = HybridPolicy(ctx)
        assert policy._classify_r_read(8).mode is ReadMode.R
        assert policy._classify_r_read(9).mode is ReadMode.RM
        assert policy._classify_r_read(17).mode is ReadMode.RM
        beyond = policy._classify_r_read(18)
        assert beyond.mode is ReadMode.R and beyond.silent_corruption


class TestLwt:
    def test_tracked_read_uses_r(self, ctx):
        policy = LwtPolicy(ctx, k=4)
        policy.on_write(1, EPOCH)
        decision = policy.on_read(1, EPOCH + 1.0)
        assert decision.mode is ReadMode.R
        assert decision.flag_access

    def test_untracked_read_uses_rm(self, ctx):
        policy = LwtPolicy(ctx, k=4)
        cold_line = ctx.profile.footprint_lines + 5
        decision = policy.on_read(cold_line, EPOCH + 1.0)
        assert decision.mode is ReadMode.RM

    def test_conversion_retires_untracked_line(self, ctx):
        policy = LwtPolicy(ctx, k=4)
        policy.conversion.t = 100
        cold_line = ctx.profile.footprint_lines + 5
        decision = policy.on_read(cold_line, EPOCH + 1.0)
        assert decision.convert_to_write
        policy.on_conversion_write(cold_line, EPOCH + 1.0)
        decision2 = policy.on_read(cold_line, EPOCH + 2.0)
        assert decision2.mode is ReadMode.R

    def test_write_updates_tracker_and_flags(self, ctx):
        policy = LwtPolicy(ctx, k=4)
        decision = policy.on_write(3, EPOCH)
        assert decision.flag_update
        assert policy.tracker.last_event_s(3, 0.0) == EPOCH

    def test_scrub_w1_rewrite_tracks(self, ctx):
        policy = LwtPolicy(ctx, k=4)
        # Cold line (age 1e6 s): M errors are likely enough to observe a
        # rewrite within a few hundred scrubs.
        cold = ctx.profile.footprint_lines + 50
        rewrote = any(
            policy.on_scrub(cold + i, EPOCH + 1.0).rewrite for i in range(500)
        )
        assert rewrote

    def test_noconv_never_converts(self, ctx):
        policy = LwtPolicy(ctx, k=4, conversion_enabled=False)
        cold_line = ctx.profile.footprint_lines + 5
        decisions = [
            policy.on_read(cold_line, EPOCH + 1.0 + i) for i in range(50)
        ]
        assert not any(d.convert_to_write for d in decisions)


class TestSelect:
    def test_recent_full_write_makes_differential(self, ctx):
        policy = SelectPolicy(ctx, k=4, s=2)
        policy.on_write(1, EPOCH)  # the line's first write is... checked below
        first = policy.on_write(1, EPOCH + 1.0)
        assert not first.full_line
        assert first.cells_written < ctx.config.cells_per_line_write
        assert first.cells_written >= policy._check_cells

    def test_stale_line_gets_full_write(self, ctx):
        policy = SelectPolicy(ctx, k=4, s=1)
        cold_line = ctx.profile.footprint_lines + 9
        decision = policy.on_write(cold_line, EPOCH)
        assert decision.full_line

    def test_differential_does_not_update_tracking(self, ctx):
        policy = SelectPolicy(ctx, k=4, s=2)
        policy.on_write(1, EPOCH)
        before = policy.tracker.last_event_s(1, 0.0)
        policy.on_write(1, EPOCH + 5.0)  # differential
        assert policy.tracker.last_event_s(1, 0.0) == before

    def test_conversion_is_full_write(self, ctx):
        policy = SelectPolicy(ctx, k=4, s=2)
        decision = policy.on_conversion_write(77, EPOCH)
        assert decision.full_line

    def test_s2_more_differential_than_s1(self, ctx):
        results = {}
        for s in (1, 2):
            policy = SelectPolicy(ctx, k=4, s=s)
            diff = sum(
                not policy.on_write(line, EPOCH).full_line
                for line in range(500)
            )
            results[s] = diff
        assert results[2] >= results[1]

    def test_rejects_bad_s(self, ctx):
        with pytest.raises(ValueError):
            SelectPolicy(ctx, s=0)


class TestAgeHelpers:
    def test_scrub_pass_age_within_interval(self, ctx):
        policy = HybridPolicy(ctx)
        for line in (0, 100, ctx.config.total_lines - 1):
            for dt in (0.0, 1.0, 300.0, 639.0):
                age = policy.scrub_pass_age(line, EPOCH + dt)
                assert 0.0 <= age <= policy.scrub_interval_s + 1e-6

    def test_no_scrub_means_infinite_age(self, ctx):
        policy = IdealPolicy(ctx)
        assert policy.scrub_pass_age(0, EPOCH) == float("inf")

    def test_last_write_uses_initial_age(self, ctx):
        policy = IdealPolicy(ctx)
        age = policy.age_of(5, EPOCH)
        assert age == pytest.approx(policy.ages.age_of(5))

    def test_record_write_overrides_initial_age(self, ctx):
        policy = IdealPolicy(ctx)
        policy.record_write(5, EPOCH + 10.0)
        assert policy.age_of(5, EPOCH + 15.0) == pytest.approx(5.0)
