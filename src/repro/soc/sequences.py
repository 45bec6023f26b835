"""Level-2 sequence generators: Fp6 multiplication and ECC point operations.

These are the programs that live in InsRom1 under the Type-B architecture
(and that the MicroBlaze walks itself under Type-A):

* :func:`fp6_multiplication_program` — the paper's 18M + ~60A Karatsuba
  sequence of Section 2.2.2, operating on the six Montgomery-form
  coefficients of each Fp6 operand;
* :func:`ecc_point_doubling_program` / :func:`ecc_point_addition_program` —
  general Jacobian doubling and addition, matching the reference formulas of
  :mod:`repro.ecc.point` operation for operation.

Each generator returns a :class:`~repro.soc.level2.Level2Program` that can be
counted by the cost model or executed functionally against a backend; helper
functions validate the sequences against the pure field/curve arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.field.extension import ExtElement
from repro.field.fp6 import Fp6Field
from repro.montgomery.domain import MontgomeryDomain
from repro.soc.level2 import Level2Program, ModularBackend

# ---------------------------------------------------------------------------
# Fp6 multiplication (Section 2.2.2).
# ---------------------------------------------------------------------------


def _half_product(
    program: Level2Program, out_prefix: str, a: List[str], b: List[str], tmp_prefix: str
) -> List[str]:
    """Emit the 6-multiplication product of two degree-2 blocks.

    Returns the five output operand names (degrees 0..4 of the block product).
    """
    c = [f"{tmp_prefix}c{i}" for i in range(6)]
    d = [f"{tmp_prefix}d{i}" for i in range(6)]
    out = [f"{out_prefix}{i}" for i in range(5)]

    program.mm(c[0], a[0], b[0])
    program.mm(c[1], a[1], b[1])
    program.mm(c[2], a[2], b[2])
    program.ms(d[0], a[0], a[1], comment="a0 - a1")
    program.ms(d[1], b[0], b[1], comment="b0 - b1")
    program.mm(c[3], d[0], d[1])
    program.ms(d[2], a[0], a[2], comment="a0 - a2")
    program.ms(d[3], b[0], b[2], comment="b0 - b2")
    program.mm(c[4], d[2], d[3])
    program.ms(d[4], a[1], a[2], comment="a1 - a2")
    program.ms(d[5], b[1], b[2], comment="b1 - b2")
    program.mm(c[5], d[4], d[5])

    # out1 = c0 + c1 - c3
    program.ma(f"{tmp_prefix}s01", c[0], c[1])
    program.ms(out[1], f"{tmp_prefix}s01", c[3])
    # out2 = c0 + c1 + c2 - c4
    program.ma(f"{tmp_prefix}s012", f"{tmp_prefix}s01", c[2])
    program.ms(out[2], f"{tmp_prefix}s012", c[4])
    # out3 = c1 + c2 - c5
    program.ma(f"{tmp_prefix}s12", c[1], c[2])
    program.ms(out[3], f"{tmp_prefix}s12", c[5])
    # out0 = c0 and out4 = c2 need no extra operation: the callers reference
    # the product registers directly (no data movement on the platform).
    return [c[0], out[1], out[2], out[3], c[2]]


def fp6_multiplication_program(
    a_prefix: str = "A", b_prefix: str = "B", out_prefix: str = "C"
) -> Level2Program:
    """The level-2 sequence of one Fp6 multiplication (18 MM + additions).

    Operand naming: inputs ``A0..A5`` and ``B0..B5`` (the z-basis
    coefficients, each a Montgomery-form Fp residue), a shared constant
    ``zero``, outputs ``C0..C5``.
    """
    a = [f"{a_prefix}{i}" for i in range(6)]
    b = [f"{b_prefix}{i}" for i in range(6)]
    out = [f"{out_prefix}{i}" for i in range(6)]
    program = Level2Program(
        name="fp6-multiplication",
        inputs=tuple(a + b + ["zero"]),
        outputs=tuple(out),
    )
    # The "zero" constant lets the half-product express plain copies as MA
    # with zero, which is how the microcoded platform moves words around.
    program.operations = []

    a_lo, a_hi = a[:3], a[3:]
    b_lo, b_hi = b[:3], b[3:]

    # C0 = A0*B0, C1 = A1*B1, C2 = (A0-A1)*(B0-B1)  (block level).
    c0 = _half_product(program, "t_lo", a_lo, b_lo, "t_lo_")
    c1 = _half_product(program, "t_hi", a_hi, b_hi, "t_hi_")
    diff_a = []
    diff_b = []
    for i in range(3):
        program.ms(f"t_da{i}", a_lo[i], a_hi[i], comment="A0 - A1 block")
        program.ms(f"t_db{i}", b_lo[i], b_hi[i], comment="B0 - B1 block")
        diff_a.append(f"t_da{i}")
        diff_b.append(f"t_db{i}")
    c2 = _half_product(program, "t_md", diff_a, diff_b, "t_md_")

    # mid = C0 + C1 - C2 (five coefficients).
    mid = []
    for i in range(5):
        program.ma(f"t_mid_s{i}", c0[i], c1[i])
        program.ms(f"t_mid{i}", f"t_mid_s{i}", c2[i])
        mid.append(f"t_mid{i}")

    # Assemble the degree-10 product prod = C0 + mid*z^3 + C1*z^6.  Only the
    # overlapping positions (3, 4, 6, 7) need an addition; the rest reference
    # the block-product registers directly.
    program.ma("t_prod3", c0[3], mid[0])
    program.ma("t_prod4", c0[4], mid[1])
    program.ma("t_prod6", mid[3], c1[0])
    program.ma("t_prod7", mid[4], c1[1])
    prod = [
        c0[0], c0[1], c0[2],
        "t_prod3", "t_prod4", mid[2],
        "t_prod6", "t_prod7", c1[2], c1[3], c1[4],
    ]

    # Reduce modulo z^6 + z^3 + 1:
    # z^6 -> -(1 + z^3), z^7 -> -(z + z^4), z^8 -> -(z^2 + z^5), z^9 -> 1, z^10 -> z.
    program.ms("t_r0", prod[0], prod[6])
    program.ma(out[0], "t_r0", prod[9])
    program.ms("t_r1", prod[1], prod[7])
    program.ma(out[1], "t_r1", prod[10])
    program.ms(out[2], prod[2], prod[8])
    program.ms(out[3], prod[3], prod[6])
    program.ms(out[4], prod[4], prod[7])
    program.ms(out[5], prod[5], prod[8])
    return program


def fp6_operand_memory(
    domain: MontgomeryDomain, a: ExtElement, b: ExtElement, a_prefix: str = "A", b_prefix: str = "B"
) -> Dict[str, int]:
    """Stage two Fp6 elements (coefficient-wise Montgomery form) for execution."""
    memory: Dict[str, int] = {"zero": 0}
    for i, coeff in enumerate(a.coeffs):
        memory[f"{a_prefix}{i}"] = domain.to_montgomery(coeff)
    for i, coeff in enumerate(b.coeffs):
        memory[f"{b_prefix}{i}"] = domain.to_montgomery(coeff)
    return memory


def fp6_result_from_memory(
    domain: MontgomeryDomain, fp6: Fp6Field, memory: Dict[str, int], out_prefix: str = "C"
) -> ExtElement:
    """Read the six output coefficients back out of Montgomery form."""
    coeffs = [domain.from_montgomery(memory[f"{out_prefix}{i}"]) for i in range(6)]
    return fp6(coeffs)


def run_fp6_multiplication(
    backend: ModularBackend,
    domain: MontgomeryDomain,
    fp6: Fp6Field,
    a: ExtElement,
    b: ExtElement,
) -> ExtElement:
    """Execute the Fp6 sequence on a backend and return the Fp6 result."""
    program = fp6_multiplication_program()
    memory = fp6_operand_memory(domain, a, b)
    program.execute(backend, memory)
    return fp6_result_from_memory(domain, fp6, memory)


# ---------------------------------------------------------------------------
# ECC point operations (general Jacobian formulas).
# ---------------------------------------------------------------------------


def ecc_point_doubling_program() -> Level2Program:
    """General Jacobian doubling (with the a*Z^4 term): ~10 MM + 13 MA/MS.

    Inputs: ``X1, Y1, Z1`` and the curve constant ``a`` (all Montgomery form).
    Outputs: ``X3, Y3, Z3``.
    """
    program = Level2Program(
        name="ecc-point-doubling",
        inputs=("X1", "Y1", "Z1", "a"),
        outputs=("X3", "Y3", "Z3"),
    )
    program.mm("XX", "X1", "X1")
    program.mm("YY", "Y1", "Y1")
    program.mm("YYYY", "YY", "YY")
    program.mm("ZZ", "Z1", "Z1")
    program.mm("t0", "X1", "YY")
    program.ma("t1", "t0", "t0", comment="2*X1*YY")
    program.ma("S", "t1", "t1", comment="4*X1*YY")
    program.mm("ZZ2", "ZZ", "ZZ")
    program.mm("aZZ2", "a", "ZZ2")
    program.ma("t2", "XX", "XX")
    program.ma("t3", "t2", "XX", comment="3*XX")
    program.ma("M", "t3", "aZZ2")
    program.mm("MM_", "M", "M")
    program.ma("t4", "S", "S")
    program.ms("X3", "MM_", "t4")
    program.ms("t5", "S", "X3")
    program.mm("t6", "M", "t5")
    program.ma("t7", "YYYY", "YYYY")
    program.ma("t8", "t7", "t7")
    program.ma("t9", "t8", "t8", comment="8*YYYY")
    program.ms("Y3", "t6", "t9")
    program.mm("t10", "Y1", "Z1")
    program.ma("Z3", "t10", "t10")
    return program


def ecc_point_addition_program() -> Level2Program:
    """General Jacobian addition: 16 MM + 7 MA/MS.

    Inputs: ``X1, Y1, Z1, X2, Y2, Z2`` (Montgomery form).
    Outputs: ``X3, Y3, Z3``.  The exceptional cases (equal or opposite
    points) are detected by the level-1 software, as on the real platform.
    """
    program = Level2Program(
        name="ecc-point-addition",
        inputs=("X1", "Y1", "Z1", "X2", "Y2", "Z2"),
        outputs=("X3", "Y3", "Z3"),
    )
    program.mm("Z1Z1", "Z1", "Z1")
    program.mm("Z2Z2", "Z2", "Z2")
    program.mm("U1", "X1", "Z2Z2")
    program.mm("U2", "X2", "Z1Z1")
    program.mm("t0", "Z2", "Z2Z2")
    program.mm("S1", "Y1", "t0")
    program.mm("t1", "Z1", "Z1Z1")
    program.mm("S2", "Y2", "t1")
    program.ms("H", "U2", "U1")
    program.ms("Rr", "S2", "S1")
    program.mm("HH", "H", "H")
    program.mm("HHH", "H", "HH")
    program.mm("V", "U1", "HH")
    program.mm("RR", "Rr", "Rr")
    program.ms("t2", "RR", "HHH")
    program.ma("t3", "V", "V")
    program.ms("X3", "t2", "t3")
    program.ms("t4", "V", "X3")
    program.mm("t5", "Rr", "t4")
    program.mm("t6", "S1", "HHH")
    program.ms("Y3", "t5", "t6")
    program.mm("t7", "Z1", "Z2")
    program.mm("Z3", "H", "t7")
    return program


def xtr_fp2_multiplication_program() -> Level2Program:
    """One Fp2 multiplication as the platform would microcode it: 3 MM + 6 MA/MS.

    The XTR trace ladder is a loop of Fp2 multiplications (Lenstra-Verheul
    count their algorithms in this unit), so projecting XTR onto the paper's
    platform needs the level-2 cost of one of them.  Over
    Fp2 = Fp[x]/(x^2 + x + 1) the Karatsuba form is

        t0 = a0*b0,  t1 = a1*b1,  t2 = (a0+a1)*(b0+b1)
        c0 = t0 - t1,  c1 = (t2 - t0 - t1) - t1

    using x^2 = -1 - x: three Montgomery multiplications plus two additions
    and four subtractions — the same 3M shape the torus tower uses for its
    quadratic level.
    """
    program = Level2Program(
        name="xtr-fp2-multiplication",
        inputs=("A0", "A1", "B0", "B1"),
        outputs=("C0", "C1"),
    )
    program.ma("sa", "A0", "A1")
    program.ma("sb", "B0", "B1")
    program.mm("t0", "A0", "B0")
    program.mm("t1", "A1", "B1")
    program.mm("t2", "sa", "sb")
    program.ms("C0", "t0", "t1")
    program.ms("m0", "t2", "t0", comment="cross term a0b1 + a1b0")
    program.ms("m1", "m0", "t1")
    program.ms("C1", "m1", "t1", comment="x^2 = -1 - x folds t1 in twice")
    return program


def _fp2_karatsuba(
    program: Level2Program,
    out0: str,
    out1: str,
    a: Tuple[str, str],
    b: Tuple[str, str],
    tmp: str,
) -> None:
    """Emit one 3MM Fp2 Karatsuba product (the body of the Fp2 sequence)."""
    program.ma(f"{tmp}sa", a[0], a[1])
    program.ma(f"{tmp}sb", b[0], b[1])
    program.mm(f"{tmp}t0", a[0], b[0])
    program.mm(f"{tmp}t1", a[1], b[1])
    program.mm(f"{tmp}t2", f"{tmp}sa", f"{tmp}sb")
    program.ms(out0, f"{tmp}t0", f"{tmp}t1")
    program.ms(f"{tmp}m0", f"{tmp}t2", f"{tmp}t0", comment="cross term a0b1 + a1b0")
    program.ms(f"{tmp}m1", f"{tmp}m0", f"{tmp}t1")
    program.ms(out1, f"{tmp}m1", f"{tmp}t1", comment="x^2 = -1 - x folds t1 in twice")


def xtr_double_step_program() -> Level2Program:
    """One XTR ladder double step ``c_2n = c_n^2 - 2 c_n^p``: 3 MM + 11 MA/MS.

    Inputs ``A0, A1`` (the Fp2 coefficients of c_n, Montgomery form);
    outputs ``C0, C1``.  Conjugation over Fp (x -> -1 - x) is one modular
    subtraction for the constant coefficient (the negation of the x
    coefficient is free, as in the reference arithmetic), and the doubling
    of the conjugate is two modular additions — exactly the operation
    stream the XTR ladder's double step executes over a resident or counting
    base field (:mod:`repro.xtr.trace`), so measured word-operation streams
    reproduce this sequence one for one.
    """
    program = Level2Program(
        name="xtr-double-step",
        inputs=("A0", "A1", "zero"),
        outputs=("C0", "C1"),
    )
    _fp2_karatsuba(program, "q0", "q1", ("A0", "A1"), ("A0", "A1"), "s_")
    # conj(c_n) = (A0 - A1, -A1); the negation rides the following adds.
    program.ms("k0", "A0", "A1", comment="conjugate, constant coefficient")
    program.ma("d0", "k0", "k0", comment="2 * conj_0")
    program.ma("d1", "A1", "A1", comment="2 * (-conj_1), sign folded into the MS below")
    program.ms("C0", "q0", "d0")
    # q1 - 2*(-A1) = q1 + 2*A1: the reference code subtracts the doubled
    # conjugate coefficient; on the platform the sign is absorbed by using
    # the appropriate add/sub opcode — one modular operation either way.
    program.ms("C1", "q1", "d1")
    return program


def xtr_mixed_step_program() -> Level2Program:
    """One XTR ladder mixed step ``c_a c_k - c_f c_k^p + c_b^p``: 6 MM + 18 MA/MS.

    Computes two of the ladder's counted Fp2 multiplications per issue (the
    off-by-one products ``c_(2k-1)`` / ``c_(2k+1)`` each run one of these).
    Inputs are the Fp2 coefficients of ``c_a`` (A), ``c_k`` (K), ``c_b``
    (B) and the factor ``c_f`` (F); outputs ``C0, C1``.
    """
    program = Level2Program(
        name="xtr-mixed-step",
        inputs=("A0", "A1", "K0", "K1", "B0", "B1", "F0", "F1", "zero"),
        outputs=("C0", "C1"),
    )
    _fp2_karatsuba(program, "t1_0", "t1_1", ("A0", "A1"), ("K0", "K1"), "u_")
    program.ms("kc0", "K0", "K1", comment="conj(c_k), constant coefficient")
    _fp2_karatsuba(program, "t2_0", "t2_1", ("F0", "F1"), ("kc0", "K1"), "v_")
    program.ms("bc0", "B0", "B1", comment="conj(c_b), constant coefficient")
    program.ms("w0", "t1_0", "t2_0")
    program.ms("w1", "t1_1", "t2_1")
    program.ma("C0", "w0", "bc0")
    program.ma("C1", "w1", "B1", comment="-conj(c_b)_1 sign folded into the opcode")
    return program


def ecc_point_memory(
    domain: MontgomeryDomain,
    coordinates: Dict[str, int],
) -> Dict[str, int]:
    """Stage Jacobian coordinates (plain residues) into Montgomery form."""
    return {name: domain.to_montgomery(value % domain.modulus) for name, value in coordinates.items()}


def ecc_point_from_memory(
    domain: MontgomeryDomain, memory: Dict[str, int]
) -> Tuple[int, int, int]:
    """Read (X3, Y3, Z3) back out of Montgomery form."""
    return tuple(domain.from_montgomery(memory[name]) for name in ("X3", "Y3", "Z3"))


# ---------------------------------------------------------------------------
# Headroom analysis for the lazy-addition mode.
# ---------------------------------------------------------------------------


def lazy_mode_headroom_ok(domain: MontgomeryDomain) -> bool:
    """Whether the Fp6 sequence may run with unreduced (lazy) additions.

    With lazy additions the deepest unreduced accumulation in the Fp6
    sequence feeds a Montgomery multiplication with operands bounded by 8P
    (differences are corrected back into [0, P) by the subtraction microcode,
    and at most two additions are chained before the next multiplication), so
    the multiplier stays correct as long as ``64 * P < R`` — i.e. at least six
    spare bits between the modulus and the word grid.  The 170-bit CEILIDH
    modulus on 11 sixteen-bit words satisfies this; secp160r1 on 10 words does
    not, which is why the strict mode is the default.
    """
    return 64 * domain.modulus < domain.r
