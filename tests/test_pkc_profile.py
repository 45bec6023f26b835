"""SchemeProfile cycle projection: the registry reproduces Table 3.

The acceptance bar for the unified layer: a single generic loop over
``get_scheme`` names yields the paper's comparison — executed operation
tallies, wire bytes and projected platform cycles — matching both the
library's direct :func:`repro.analysis.tables.table3` reproduction and the
paper's published orderings/factors.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.tables import TABLE3_SCHEMES, table3, table3_profiles
from repro.pkc import build_profile, canonical_exponent, get_scheme
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def profiles(platform):
    """The generic registry loop, protocol legs off (pure Table 3)."""
    return {
        p.scheme: p
        for p in table3_profiles(
            platform, TABLE3_SCHEMES, rng=random.Random(1), include_protocols=False
        )
    }


class TestCanonicalExponent:
    @pytest.mark.parametrize("bits", [1, 2, 3, 160, 161, 170, 1024])
    def test_length_and_weight(self, bits):
        exponent = canonical_exponent(bits)
        assert exponent.bit_length() == bits
        assert bin(exponent).count("1") == (bits + 1) // 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            canonical_exponent(0)

    def test_binary_strategy_hits_the_closed_form(self, bits=170):
        """Executed counts equal the paper's (n-1, (n-1)//2) composition."""
        from repro.exp.strategies import expected_counts

        expected = expected_counts("binary", bits)
        assert expected.squarings == bits - 1
        assert expected.multiplications == (bits - 1) // 2


class TestHeadlineTraces:
    def test_ceilidh_trace_is_the_paper_composition(self, profiles):
        trace = profiles["ceilidh-170"].headline_trace
        assert (trace.squarings, trace.multiplications) == (169, 84)

    def test_rsa_trace_is_the_paper_composition(self, profiles):
        trace = profiles["rsa-1024"].headline_trace
        assert (trace.squarings, trace.multiplications) == (1023, 511)

    def test_ecc_trace_is_the_paper_composition(self, profiles):
        # secp160r1's order is 161 bits: 160 doublings, 80 additions.
        trace = profiles["ecdh-p160"].headline_trace
        assert (trace.squarings, trace.multiplications) == (160, 80)

    def test_xtr_ladder_trace_scales_with_the_exponent(self, profiles):
        trace = profiles["xtr-170"].headline_trace
        # Per processed bit: two off-by-one products (2 Fp2 mults each) and
        # one or two doubles; 169 processed bits minus the ladder's setup.
        assert trace.multiplications == 4 * 169
        assert 169 <= trace.squarings <= 2 * 169 + 1


class TestCycleProjection:
    def test_matches_direct_table3_exactly(self, profiles, platform):
        """Registry rows equal the Platform composition, not just roughly."""
        direct = {row.system: row for row in table3(platform)}
        pairs = [
            ("ceilidh-170", "170-bit torus (CEILIDH)"),
            ("rsa-1024", "1024-bit RSA"),
            ("ecdh-p160", "160-bit ECC"),
        ]
        for scheme_name, system_name in pairs:
            profile = profiles[scheme_name]
            row = direct[system_name]
            assert profile.projected_ms == pytest.approx(row.measured_ms, rel=1e-12)
            assert profile.area_slices == row.area_slices
            assert profile.frequency_mhz == row.frequency_mhz

    def test_paper_orderings_and_factors(self, profiles):
        torus = profiles["ceilidh-170"]
        rsa = profiles["rsa-1024"]
        ecc = profiles["ecdh-p160"]
        assert ecc.projected_ms < torus.projected_ms < rsa.projected_ms
        assert rsa.projected_ms / torus.projected_ms > 2.5
        assert 1.5 < torus.projected_ms / ecc.projected_ms < 3.5

    def test_paper_tolerance(self, profiles):
        """Each paper row is reproduced within the repo's established 2x band."""
        for name in ("ceilidh-170", "rsa-1024", "ecdh-p160"):
            ratio = profiles[name].ratio_to_paper
            assert ratio is not None
            assert 0.5 < ratio < 2.0

    def test_xtr_projection_lands_between_ecc_and_rsa(self, profiles):
        """No paper number exists; sanity-bound the projection instead."""
        xtr = profiles["xtr-170"]
        assert xtr.paper_ms is None
        assert profiles["ecdh-p160"].projected_ms < xtr.projected_ms
        assert xtr.projected_ms < profiles["rsa-1024"].projected_ms

    def test_wire_bytes_reproduce_the_bandwidth_story(self, profiles):
        torus_bytes = profiles["ceilidh-170"].wire_bytes["public_key"]
        assert profiles["xtr-170"].wire_bytes["public_key"] == torus_bytes
        assert profiles["rsa-1024"].wire_bytes["public_key"] > 2.8 * torus_bytes


class TestFullProfiles:
    def test_protocol_legs_populate_traces_and_wire(self, platform):
        profile = build_profile(
            get_scheme("ceilidh-toy32"), platform, random.Random(2)
        )
        assert set(profile.traces) == {
            "keygen", "key_agreement", "encrypt", "decrypt", "sign", "verify",
        }
        assert all(trace.total > 0 for trace in profile.traces.values())
        assert set(profile.wire_bytes) == {
            "public_key", "key_agreement_message", "ciphertext_overhead", "signature",
        }
        assert profile.total_protocol_ops.total == sum(
            t.total for t in profile.traces.values()
        )

    def test_capability_gaps_leave_no_dangling_entries(self, platform):
        profile = build_profile(get_scheme("xtr-toy32"), platform, random.Random(3))
        assert set(profile.traces) == {"keygen", "key_agreement"}
        assert "ciphertext_overhead" not in profile.wire_bytes
        assert "signature" not in profile.wire_bytes
        assert profile.projected_cycles > 0
