"""CEILIDH versus XTR — the comparison the paper builds on (its reference [5]).

Granger, Page and Stam compared CEILIDH and XTR on a PC and concluded that
"CEILIDH is not much slower than XTR"; the paper uses that result to justify
implementing CEILIDH.  Both systems live in the same order-q subgroup of Fp6*
and transmit ~2 log p bits per element; they differ in how an exponentiation
is computed (full Fp6 arithmetic, 18 Fp multiplications per group operation,
versus Fp2 trace recurrences, ~4 Fp2 multiplications per exponent bit).

This benchmark reproduces that comparison on this library: identical
bandwidth, Fp-multiplication counts per exponentiation, and wall-clock times
of the two software implementations.
"""

from __future__ import annotations

import random

from repro.exp import expected_counts
from repro.field.opcount import CountingPrimeField
from repro.torus.ceilidh import CeilidhSystem
from repro.torus.encoding import compressed_size_bytes
from repro.torus.params import CEILIDH_170, get_parameters
from repro.xtr.keyagreement import XtrSystem
from repro.xtr.trace import XtrContext


def bench_ceilidh_vs_xtr_operation_counts(benchmark, record_table):
    """Bandwidth and Fp-operation counts per 170-bit exponentiation."""
    def analyse():
        exponent_bits = 170
        ceilidh_counts = expected_counts("binary", exponent_bits)
        ceilidh_fp_muls = 18 * ceilidh_counts.total
        xtr_fp2_muls = XtrContext(CEILIDH_170).ladder_multiplication_count(exponent_bits)
        xtr_fp_muls = 3 * xtr_fp2_muls  # Karatsuba Fp2 multiplication = 3 Fp products
        element_bytes = compressed_size_bytes(CEILIDH_170)
        return [
            ("CEILIDH (compressed torus)", element_bytes, ceilidh_counts.total,
             f"{ceilidh_fp_muls} Fp mults"),
            ("XTR (trace over Fp2)", element_bytes, exponent_bits,
             f"~{xtr_fp_muls} Fp mults"),
        ]

    rows = benchmark.pedantic(analyse, rounds=1, iterations=1)
    record_table("ceilidh_vs_xtr",
        ["system", "bytes per public value", "group ops / ladder steps", "Fp multiplication cost"],
        rows,
        title="CEILIDH vs XTR - bandwidth and arithmetic cost per 170-bit exponentiation "
              "(paper reference [5])",
    )
    assert rows[0][1] == rows[1][1]  # identical bandwidth


def bench_ceilidh_exponentiation_fp_mult_count(benchmark):
    """Measured Fp multiplications of one CEILIDH exponentiation (toy size)."""
    params = get_parameters("toy-32")

    def run():
        field = CountingPrimeField(params.p, check_prime=False)
        from repro.field.fp6 import make_fp6
        from repro.torus.t6 import T6Group

        group = T6Group(params)
        group.fp = field
        group.fp6 = make_fp6(field)
        element = group.fp6.project_to_torus(group.fp6([3, 1]))
        field.reset_counts()
        group.fp6.pow(element, (1 << 32) - 5)
        return field.counts.mul

    count = benchmark.pedantic(run, rounds=1, iterations=1)
    # 32-bit exponent, ~1.5 * 32 group operations, 18 M each.
    assert 600 < count < 1200


def bench_xtr_key_agreement_software(benchmark):
    """Wall-clock cost of one XTR shared-secret derivation at 170 bits."""
    system = XtrSystem(CEILIDH_170)
    rng = random.Random(31)
    alice = system.generate_keypair(rng)
    bob = system.generate_keypair(rng)
    shared = benchmark(system.shared_trace, alice, bob.public)
    assert shared == system.shared_trace(bob, alice.public)


def bench_ceilidh_key_agreement_vs_xtr_wallclock(benchmark):
    """Wall-clock cost of one CEILIDH shared-secret derivation (same subgroup)."""
    system = CeilidhSystem(CEILIDH_170)
    rng = random.Random(32)
    alice = system.generate_keypair(rng)
    bob = system.generate_keypair(rng)
    shared = benchmark(system.shared_secret, alice, bob.public)
    assert shared == system.shared_secret(bob, alice.public)
