"""Tests of the traffic-model subsystem (``repro.traffic``)."""

from __future__ import annotations

import asyncio
import itertools
import random

import pytest

from repro.errors import ParameterError
from repro.serve.server import ServeServer
from repro.traffic.engine import (
    CHANNEL_MESSAGE,
    CHANNEL_OPEN,
    compile_schedule,
    run_traffic,
)
from repro.traffic.model import (
    MIXES,
    ArrivalModel,
    ChannelProfile,
    TrafficMix,
    get_mix,
    one_shot_mix,
    zipf_weights,
)


def run(coroutine):
    return asyncio.run(coroutine)


TOY_MIX = TrafficMix(
    name="toy",
    schemes=("ceilidh-toy32", "rsa-512", "xtr-toy32"),
    zipf_exponent=1.0,
    channel_weight=0.7,
    arrivals=ArrivalModel(mean_burst=3.0, mean_gap_seconds=0.001),
    channels=ChannelProfile(
        mean_messages=10.0, min_messages=3, think_seconds=0.0,
        rekey_after_messages=6,
    ),
)

TOY_CAPABILITIES = {
    "ceilidh-toy32": ("key-agreement", "encryption", "signature"),
    "rsa-512": ("encryption", "signature"),
    "xtr-toy32": ("key-agreement",),
}


class TestModel:
    def test_zipf_weights_normalised_and_ranked(self):
        weights = zipf_weights(5, 1.0)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == pytest.approx(2 * weights[1])

    def test_zipf_exponent_zero_is_uniform(self):
        assert zipf_weights(4, 0.0) == [0.25] * 4

    def test_zipf_rejects_empty(self):
        with pytest.raises(ParameterError):
            zipf_weights(0)

    def test_burst_sizes_hit_the_mean(self):
        rng = random.Random(1)
        arrivals = ArrivalModel(mean_burst=4.0)
        sizes = [arrivals.burst_size(rng) for _ in range(4000)]
        assert min(sizes) == 1
        assert 3.5 < sum(sizes) / len(sizes) < 4.5

    def test_gap_seconds_exponential_mean(self):
        rng = random.Random(2)
        arrivals = ArrivalModel(mean_gap_seconds=0.01)
        gaps = [arrivals.gap_seconds(rng) for _ in range(4000)]
        assert 0.008 < sum(gaps) / len(gaps) < 0.012
        assert ArrivalModel(mean_gap_seconds=0.0).gap_seconds(rng) == 0.0

    def test_channel_message_counts_respect_the_floor(self):
        rng = random.Random(3)
        profile = ChannelProfile(mean_messages=8.0, min_messages=4)
        counts = [profile.message_count(rng) for _ in range(2000)]
        assert min(counts) >= 4
        assert max(counts) > 8

    def test_scheme_popularity_is_zipf_skewed(self):
        rng = random.Random(4)
        picks = [TOY_MIX.pick_scheme(rng) for _ in range(6000)]
        counts = {name: picks.count(name) for name in TOY_MIX.schemes}
        # Rank order matches declaration order under zipf_exponent=1.
        assert counts["ceilidh-toy32"] > counts["rsa-512"] > counts["xtr-toy32"]

    def test_session_kinds_respect_capabilities(self):
        rng = random.Random(5)
        for _ in range(500):
            kind = TOY_MIX.pick_session_kind(rng, TOY_CAPABILITIES["rsa-512"])
            assert kind in ("channel", "encryption", "signature")
            kind = TOY_MIX.pick_session_kind(rng, TOY_CAPABILITIES["xtr-toy32"])
            assert kind in ("channel", "key-agreement")

    def test_channel_only_fallback_for_empty_oneshot_support(self):
        mix = TrafficMix(
            name="sig-only",
            schemes=("xtr-toy32",),
            channel_weight=0.0,
            oneshot_weights={"signature": 1.0},
        )
        rng = random.Random(6)
        # XTR has no signature: the draw must fall back to a channel, which
        # every scheme can bootstrap, rather than an unsupported op.
        assert mix.pick_session_kind(rng, ("key-agreement",)) == "channel"

    def test_presets_are_well_formed(self):
        assert "zipf-bursty" in MIXES
        for name, mix in MIXES.items():
            assert mix.name == name
            assert mix.schemes
            assert 0.0 <= mix.channel_weight <= 1.0
        assert get_mix("zipf-bursty") is MIXES["zipf-bursty"]
        with pytest.raises(ParameterError):
            get_mix("no-such-mix")

    def test_compile_schedule_is_deterministic(self):
        one = compile_schedule(TOY_MIX, random.Random("seed"), 40, TOY_CAPABILITIES)
        two = compile_schedule(TOY_MIX, random.Random("seed"), 40, TOY_CAPABILITIES)
        assert one == two
        assert len(one) == 40
        kinds = {planned.kind for planned in one}
        assert "channel" in kinds and len(kinds) > 1
        for planned in one:
            if planned.kind == "channel":
                assert planned.messages >= TOY_MIX.channels.min_messages


class TestEngine:
    def test_traffic_run_accounts_every_request(self):
        """The strict identity: submitted == responses + explicit errors,
        with channels, rekeys and one-shots all flowing."""

        async def scenario():
            async with ServeServer(rng=random.Random(0x7A)) as server:
                host, port = server.address
                report = await run_traffic(
                    host, port, TOY_MIX, clients=4,
                    sessions_per_client=6, seed=3,
                )
                return report, server.channels.stats, server.protocol_errors

        report, stats, protocol_errors = run(scenario())
        assert report.accounted
        assert report.submitted == report.responses  # no refusals expected here
        assert report.channels_opened > 0
        assert report.channel_messages > 0
        assert report.rekeys > 0  # rekey_after_messages=6, mean length 10
        assert report.oneshots > 0
        assert protocol_errors == 0
        assert stats.opened == report.channels_opened
        assert stats.messages == report.channel_messages
        assert stats.evicted_hostile == 0
        # Every cell's histogram counted exactly its completions.
        for entry in report.entries.values():
            assert len(entry.histogram) == entry.count

    def test_schedules_identical_across_runs_same_seed(self):
        async def scenario(seed):
            async with ServeServer(rng=random.Random(0x7B)) as server:
                host, port = server.address
                report = await run_traffic(
                    host, port, TOY_MIX, clients=3,
                    sessions_per_client=5, seed=seed,
                )
                return {
                    key: entry.count for key, entry in report.entries.items()
                }

        first = run(scenario(11))
        second = run(scenario(11))
        third = run(scenario(12))
        assert first == second  # same seed: identical request counts per cell
        assert first != third  # different seed: a different workload

    def test_quota_refusals_are_explicit_and_recovered(self):
        """A tiny token bucket forces ERR_OVER_QUOTA frames; the engine
        counts them as explicit errors and still completes the schedule.

        The channel table runs on a virtual clock that advances a fixed step
        per reading, so each reading refills 1/16 of a token whatever the
        host's speed.  The schedule draws 114 tokens, 37 of them by the
        busiest client, and a frame reads the clock at most three times: so
        before any refusal there are about 360 readings, and even if all of
        them refilled the busiest bucket it would hold 8 + 360/16 < 37.
        """
        from repro.serve.channel import ChannelPolicy, ChannelTable

        async def scenario():
            policy = ChannelPolicy(
                bucket_capacity=8.0, bucket_refill_per_second=300.0
            )
            ticks = itertools.count()
            step = 1.0 / (16 * policy.bucket_refill_per_second)
            server = ServeServer(rng=random.Random(0x7C), channel_policy=policy)
            server.channels = ChannelTable(policy, clock=lambda: next(ticks) * step)
            async with server:
                host, port = server.address
                report = await run_traffic(
                    host, port, TOY_MIX, clients=4,
                    sessions_per_client=4, seed=5,
                )
                return report, server.channels.stats

        report, stats = run(scenario())
        assert report.accounted
        assert report.rejected_quota > 0  # the bucket actually bit
        assert report.explicit_errors == report.rejected_quota
        assert stats.rejected_quota >= report.rejected_quota
        assert stats.evicted_hostile == 0  # refusals never desynced a channel

    def test_handshake_vs_steady_state_split(self):
        async def scenario():
            async with ServeServer(rng=random.Random(0x7D)) as server:
                host, port = server.address
                return await run_traffic(
                    host, port, TOY_MIX, clients=3,
                    sessions_per_client=5, seed=7,
                )

        report = run(scenario())
        handshake = report.handshake_histogram()
        steady = report.steady_state_histogram()
        assert len(handshake) == report.channels_opened
        assert len(steady) == report.channel_messages
        # The whole point of channels: a record is much cheaper than a
        # handshake (symmetric crypto vs a public-key operation).
        assert steady.percentile(0.5) < handshake.percentile(0.5)
        open_keys = [k for k in report.entries if k.endswith(CHANNEL_OPEN)]
        message_keys = [k for k in report.entries if k.endswith(CHANNEL_MESSAGE)]
        assert open_keys and message_keys

    def test_one_shot_mix_is_a_closed_loop(self):
        """One scheme, one operation, no channels, no think time: every
        client runs ``sessions_per_client`` of that operation back to back,
        and the report has exactly one cell, keyed like the mix."""
        mix = one_shot_mix("ceilidh-toy32", "key-agreement")
        assert mix.name == "ceilidh-toy32:key-agreement"
        assert mix.schemes == ("ceilidh-toy32",)
        assert mix.channel_weight == 0.0
        rng = random.Random(8)
        assert {mix.arrivals.burst_size(rng) for _ in range(50)} == {1}
        assert mix.arrivals.gap_seconds(rng) == 0.0
        schedule = compile_schedule(
            mix, rng, 20, {"ceilidh-toy32": TOY_CAPABILITIES["ceilidh-toy32"]}
        )
        assert {(p.scheme, p.kind) for p in schedule} == {
            ("ceilidh-toy32", "key-agreement")
        }
        with pytest.raises(ParameterError):
            one_shot_mix("ceilidh-toy32", "decryption")

        async def scenario():
            async with ServeServer(
                schemes=("ceilidh-toy32",), rng=random.Random(4), workers=2
            ) as server:
                host, port = server.address
                return await run_traffic(
                    host, port, mix, clients=2, sessions_per_client=4
                )

        report = run(scenario())
        assert report.accounted
        assert report.responses == report.oneshots == 8
        assert report.channels_opened == 0
        assert list(report.entries) == [mix.name]
        assert report.entries[mix.name].count == 8

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ParameterError):
            run(run_traffic("127.0.0.1", 1, TOY_MIX, clients=0))
        with pytest.raises(ParameterError):
            run(run_traffic("127.0.0.1", 1, TOY_MIX, sessions_per_client=0))
