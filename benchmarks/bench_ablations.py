"""Design-choice ablations called out in DESIGN.md.

* number of coprocessor cores vs the 170-bit Montgomery multiplication and
  the resulting Table 3 torus time (the platform's main scaling knob);
* exponentiation strategy on the torus (binary, as in the paper, vs NAF and
  windowed — both attractive because torus inversion is a free Frobenius);
* Montgomery word-scanning variant (FIOS, as in the paper, vs SOS and CIOS)
  in terms of word-level operation counts.
"""

from __future__ import annotations

import random

from repro.exp import expected_counts
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.fios import fios_trace
from repro.soc.engine import ModularEngine
from repro.soc.system import Platform, PlatformConfig
from repro.torus.params import CEILIDH_170


def bench_core_count_ablation(benchmark, record_table):
    """Platform cost of the 170-bit torus exponentiation vs number of cores."""
    def sweep():
        rows = []
        for cores in (1, 2, 4, 8):
            platform = Platform(PlatformConfig(num_cores=cores))
            mm = platform.measure_operation_costs(CEILIDH_170.p).modular_mult
            timing = platform.torus_exponentiation_timing(CEILIDH_170)
            area = platform.area_report()
            rows.append((cores, mm, round(timing.milliseconds, 2), area.total_slices,
                         round(area.frequency_mhz, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table("ablation_core_count",
        ["cores", "170-bit MM cycles", "torus exponentiation ms", "slices", "MHz"],
        rows,
        title="Ablation - core count vs multiplication cycles, torus time and area",
    )
    mm_cycles = [row[1] for row in rows]
    assert mm_cycles[0] > mm_cycles[2]  # 4 cores beat 1 core
    areas = [row[3] for row in rows]
    assert areas == sorted(areas)  # more cores, more slices


def bench_exponentiation_strategy_ablation(benchmark, platform, record_table):
    """Torus exponentiation cost under binary / NAF / windowed recoding."""
    sequence = platform.fp6_multiplication_cost(CEILIDH_170.p)
    costs = platform.measure_operation_costs(CEILIDH_170.p)
    model = platform.cost_model(costs)

    def sweep():
        rows = []
        for strategy in ("binary", "naf", "window4", "wnaf4", "sliding4"):
            counts = expected_counts(strategy.rstrip("4"), 170, window_bits=4)
            cycles = model.exponentiation_cycles(
                sequence.type_b_cycles, counts.squarings, counts.multiplications
            )
            rows.append((strategy, counts.squarings, counts.multiplications,
                         cycles, round(model.cycles_to_ms(cycles), 2)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table("ablation_exponentiation_strategy",
        ["strategy", "squarings", "multiplications", "cycles", "ms @ 74 MHz"],
        rows,
        title="Ablation - torus exponentiation strategy (Type-B, 170-bit exponent)",
    )
    by_strategy = {row[0]: row[3] for row in rows}
    assert by_strategy["naf"] < by_strategy["binary"]


def bench_montgomery_variant_ablation(benchmark, record_table):
    """FIOS (the paper's choice) vs the closed-form costs of one multiplication."""
    domain = MontgomeryDomain(CEILIDH_170.p, word_bits=16)
    rng = random.Random(30)
    p = CEILIDH_170.p
    xb, yb = rng.randrange(p), rng.randrange(p)

    def analyse():
        trace = fios_trace(domain, xb, yb)
        s = domain.num_words
        return [
            ("FIOS (paper)", trace.word_mults, trace.word_adds),
            ("SOS (separated)", 2 * s * s + s, 4 * s * s + 4 * s + 2),
            ("CIOS (coarse)", 2 * s * s + s, 4 * s * s + 4 * s + 2),
        ]

    rows = benchmark.pedantic(analyse, rounds=1, iterations=1)
    record_table("ablation_montgomery_variants",
        ["variant", "word multiplications", "word additions"],
        rows,
        title="Ablation - Montgomery word-scanning variants (170-bit operand, w = 16)",
    )
    assert rows[0][1] == rows[1][1]  # all variants share the 2s^2+s multiplication count


def bench_register_file_pressure(benchmark, record_table):
    """Smallest register file that still fits each operand size (4 cores)."""
    def sweep():
        rows = []
        for bits, modulus in ((170, CEILIDH_170.p), (1024, None)):
            if modulus is None:
                from repro.soc.system import default_rsa_modulus

                modulus = default_rsa_modulus(bits)
            engine = ModularEngine(modulus, num_cores=4)
            words = engine.num_words
            per_core = max(hi - lo + 1 for lo, hi in engine.multiplier.schedule_blocks.blocks)
            needed = 3 * per_core + 10
            rows.append((bits, words, per_core, needed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table("ablation_register_pressure",
        ["operand bits", "words", "words per core", "registers needed per core"],
        rows,
        title="Ablation - per-core register-file pressure (4 cores, w = 16)",
    )
    assert rows[-1][3] <= 80  # the default register file covers 1024-bit RSA
