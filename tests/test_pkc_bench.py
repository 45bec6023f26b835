"""The batched multi-session serving harness."""

from __future__ import annotations

import random

import pytest

from repro.errors import ParameterError, UnsupportedOperationError
from repro.pkc import get_scheme
from repro.pkc.bench import registry_batch_comparison, run_batch


@pytest.fixture
def rng():
    return random.Random(0xBA7C4)


class TestRunBatch:
    def test_key_agreement_batch_accounting(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        result = run_batch(scheme, "key-agreement", 3, rng=rng)
        assert result.scheme == scheme.name
        assert result.sessions == 3
        assert result.wall_seconds > 0
        assert result.ops.total > 0
        # Each session sends one public key each way.
        assert result.wire_bytes == 3 * 2 * scheme.public_key_size()
        assert result.ops_per_session == pytest.approx(result.ops.total / 3)
        assert result.ms_per_session == pytest.approx(result.wall_seconds * 1e3 / 3)

    def test_encryption_batch_round_trips(self, rng):
        scheme = get_scheme("rsa-512")
        result = run_batch(scheme, "encryption", 2, rng=rng, payload=b"payload")
        assert result.sessions == 2
        # RSA-KEM wire: modulus-width wrap + 16-byte tag + payload, per session.
        assert result.wire_bytes == 2 * (64 + 16 + len(b"payload"))
        assert result.ops.total > 0

    def test_signature_batch(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        result = run_batch(scheme, "signature", 2, rng=rng)
        assert result.sessions == 2
        assert result.ops.total > 0
        assert result.wire_bytes > 0

    def test_server_key_reuse_amortizes_fixed_base_tables(self, rng):
        scheme = get_scheme("ceilidh-toy32", fresh=True)
        server = scheme.keygen(rng)
        run_batch(scheme, "key-agreement", 1, rng=rng, server=server)  # warm
        warm = run_batch(scheme, "key-agreement", 2, rng=rng, server=server)
        # Client keygens ride the cached generator table (zero squarings),
        # so only the two online derivations per session square.
        per_session = warm.ops.squarings / warm.sessions
        online = run_batch(scheme, "key-agreement", 1, rng=rng, server=server)
        assert per_session == pytest.approx(online.ops.squarings, rel=0.5)

    def test_unsupported_operation_rejected(self, rng):
        with pytest.raises(UnsupportedOperationError):
            run_batch(get_scheme("xtr-toy32"), "signature", 1, rng=rng)

    def test_unknown_operation_and_empty_batch_rejected(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        with pytest.raises(ParameterError):
            run_batch(scheme, "handshake", 1, rng=rng)
        with pytest.raises(ParameterError):
            run_batch(scheme, "key-agreement", 0, rng=rng)

    def test_negative_sessions_rejected(self, rng):
        with pytest.raises(ParameterError):
            run_batch(get_scheme("ceilidh-toy32"), "key-agreement", -1, rng=rng)
        with pytest.raises(ParameterError):
            registry_batch_comparison(("ceilidh-toy32",), "key-agreement", -1, rng=rng)

    def test_single_session_takes_the_loop_path(self, rng):
        # Coalescing needs two sessions: one runs the per-session loop.
        result = run_batch(get_scheme("ceilidh-toy32"), "key-agreement", 1, rng=rng)
        assert result.sessions == 1
        assert not result.coalesced and result.batch_size is None
        assert result.wire_bytes > 0 and result.ops.total > 0


class TestRegistryComparison:
    def test_skips_schemes_without_the_capability(self, rng):
        results = registry_batch_comparison(
            ("ceilidh-toy32", "xtr-toy32", "rsa-512"), "key-agreement", 2, rng=rng
        )
        assert [r.scheme for r in results] == ["ceilidh-toy32", "xtr-toy32"]

    def test_encryption_comparison_runs_the_encryptors(self, rng):
        results = registry_batch_comparison(
            ("ceilidh-toy32", "xtr-toy32", "rsa-512"), "encryption", 2, rng=rng
        )
        assert [r.scheme for r in results] == ["ceilidh-toy32", "rsa-512"]
        assert all(r.sessions == 2 for r in results)


class TestFastPath:
    def test_collect_ops_false_takes_the_null_trace_path(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        result = run_batch(scheme, "key-agreement", 3, rng=rng, collect_ops=False)
        assert result.sessions == 3
        assert result.ops.total == 0  # nothing recorded on the fast path
