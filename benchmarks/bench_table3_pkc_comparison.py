"""Table 3 — full public-key operations: torus vs RSA vs ECC on one platform.

Regenerates the paper's headline comparison: a 170-bit T6 exponentiation
(paper: 20 ms), a 1024-bit RSA exponentiation (96 ms) and a 160-bit ECC
scalar multiplication (9.4 ms) on the same 5419-slice, 74 MHz platform, and
additionally wall-clock-benchmarks the corresponding software-level
operations of the library (torus exponentiation, RSA decryption, ECC scalar
multiplication) so the run also documents the pure-Python costs.

The registry benchmark regenerates the same table through the unified
scheme layer instead: one generic loop over ``repro.pkc`` scheme names — no
scheme-specific branches — yielding executed operation tallies, wire sizes
and projected platform cycles per row (plus the XTR column the paper only
cites).
"""

from __future__ import annotations

import random

from repro.analysis.tables import table3, table3_profiles
from repro.ecc.curves import SECP160R1
from repro.ecc.scalar import scalar_mult
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.exponent import montgomery_power
from repro.soc.system import default_rsa_modulus
from repro.torus.params import CEILIDH_170
from repro.torus.t6 import T6Group


def bench_table3_reproduction(benchmark, platform, record_table):
    """Regenerate Table 3 and check the paper's ordering and factors."""
    rows = benchmark.pedantic(table3, args=(platform,), rounds=1, iterations=1)
    record_table("table3_pkc_comparison",
        ["system", "bits", "slices", "MHz", "measured ms", "paper ms", "ratio"],
        [
            (r.system, r.bit_length, r.area_slices, r.frequency_mhz, r.measured_ms, r.paper_ms, r.ratio)
            for r in rows
        ],
        title="Table 3 - full public-key operations on the platform (measured vs paper)",
    )

    by_name = {r.system: r for r in rows}
    torus = by_name["170-bit torus (CEILIDH)"]
    rsa = by_name["1024-bit RSA"]
    ecc = by_name["160-bit ECC"]
    # Paper: ECC (9.4 ms) < torus (20 ms) < RSA (96 ms); torus ~5x faster than
    # RSA and ~2x slower than ECC; same area and clock for all three.
    assert ecc.measured_ms < torus.measured_ms < rsa.measured_ms
    assert rsa.measured_ms / torus.measured_ms > 2.5
    assert 1.5 < torus.measured_ms / ecc.measured_ms < 3.5
    assert torus.area_slices == rsa.area_slices == ecc.area_slices == 5419


def bench_table3_registry_profiles(benchmark, platform, record_table, quick):
    """Table 3 through the unified registry: one generic loop, four schemes."""
    rng = random.Random(0x7AB1E3)
    profiles = benchmark.pedantic(
        table3_profiles,
        args=(platform,),
        kwargs={"rng": rng, "include_protocols": not quick},
        rounds=1,
        iterations=1,
    )
    record_table("table3_registry_profiles",
        ["scheme", "bits", "sq", "mul", "public key B", "projected cycles",
         "projected ms", "paper ms"],
        [
            (
                p.scheme,
                p.bit_length,
                p.headline_trace.squarings,
                p.headline_trace.multiplications,
                p.wire_bytes["public_key"],
                p.projected_cycles,
                round(p.projected_ms, 2),
                p.paper_ms if p.paper_ms is not None else "-",
            )
            for p in profiles
        ],
        title="Table 3 via repro.pkc registry (generic loop; XTR projected, not in paper)",
    )

    by_name = {p.scheme: p for p in profiles}
    torus, rsa, ecc = by_name["ceilidh-170"], by_name["rsa-1024"], by_name["ecdh-p160"]
    # Same orderings and factors the direct Table 3 reproduction asserts.
    assert ecc.projected_ms < torus.projected_ms < rsa.projected_ms
    assert rsa.projected_ms / torus.projected_ms > 2.5
    assert 1.5 < torus.projected_ms / ecc.projected_ms < 3.5
    assert all(p.area_slices == 5419 for p in profiles)
    # The bandwidth half: a compressed torus element is a third of an RSA
    # message and in the same class as an (uncompressed) ECC point.
    assert rsa.wire_bytes["public_key"] > 2.8 * torus.wire_bytes["public_key"]
    assert by_name["xtr-170"].wire_bytes["public_key"] == torus.wire_bytes["public_key"]


def bench_torus_exponentiation_software(benchmark):
    """Pure-software 170-bit torus exponentiation (the paper's 20 ms operation)."""
    group = T6Group(CEILIDH_170)
    generator = group.generator()
    exponent = random.Random(5).getrandbits(170)
    result = benchmark(lambda: generator ** exponent)
    assert group.contains(result)


def bench_rsa_exponentiation_software(benchmark):
    """Pure-software 1024-bit modular exponentiation (the paper's 96 ms operation)."""
    modulus = default_rsa_modulus(1024)
    domain = MontgomeryDomain(modulus, word_bits=16)
    rng = random.Random(6)
    base = rng.randrange(modulus)
    exponent = rng.getrandbits(1024)
    result = benchmark(montgomery_power, domain, base, exponent, strategy="binary")
    assert result == pow(base, exponent, modulus)


def bench_ecc_scalar_multiplication_software(benchmark):
    """Pure-software 160-bit scalar multiplication (the paper's 9.4 ms operation)."""
    _, generator = SECP160R1.build()
    scalar = random.Random(7).getrandbits(160)
    result = benchmark(scalar_mult, generator, scalar, "binary")
    assert not result.is_infinity()
