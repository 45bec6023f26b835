"""Named and generated curves.

The paper benchmarks "160-bit ECC" without naming a curve; the standard
160-bit prime-field curve of that era is SECG's secp160r1, which is what the
ECC examples and Table 3 benchmark use here.  secp192r1 (NIST P-192) and
secp256k1 are included for the bandwidth/scaling comparisons.  Every named
curve is *self-validated* in code (prime field, generator on the curve, prime
group order inside the Hasse interval, n*G = O), so the library never relies
on the transcription being taken on faith.

For exhaustive unit tests, :func:`generate_toy_curve` builds curves over tiny
prime fields and determines the group order by brute-force point counting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ParameterError
from repro.field.fp import PrimeField
from repro.nt.primality import is_probable_prime
from repro.ecc.curve import WeierstrassCurve
from repro.ecc.point import AffinePoint
from repro.ecc.scalar import scalar_mult


@dataclass(frozen=True)
class NamedCurve:
    """A named curve: domain parameters plus a distinguished base point."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    order: int
    cofactor: int

    def build(self, backend=None) -> Tuple[WeierstrassCurve, AffinePoint]:
        """Instantiate the curve object and its base point.

        ``backend`` selects the field-arithmetic substrate (see
        :mod:`repro.field.backend`); the named domain parameters are plain
        integers and enter the representation here.
        """
        field = PrimeField(self.p, check_prime=False, backend=backend)
        curve = WeierstrassCurve(field, self.a, self.b)
        generator = AffinePoint(
            curve, field.enter(self.gx), field.enter(self.gy)
        )
        return curve, generator

    @property
    def bits(self) -> int:
        return self.p.bit_length()


SECP160R1 = NamedCurve(
    name="secp160r1",
    p=2 ** 160 - 2 ** 31 - 1,
    a=2 ** 160 - 2 ** 31 - 1 - 3,
    b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
    gy=0x23A628553168947D59DCC912042351377AC5FB32,
    order=0x0100000000000000000001F4C8F927AED3CA752257,
    cofactor=1,
)

SECP192R1 = NamedCurve(
    name="secp192r1",
    p=2 ** 192 - 2 ** 64 - 1,
    a=2 ** 192 - 2 ** 64 - 1 - 3,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
    order=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
    cofactor=1,
)

SECP256K1 = NamedCurve(
    name="secp256k1",
    p=2 ** 256 - 2 ** 32 - 977,
    a=0,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    cofactor=1,
)

NAMED_CURVES: Dict[str, NamedCurve] = {
    c.name: c for c in (SECP160R1, SECP192R1, SECP256K1)
}


def get_curve(name: str) -> NamedCurve:
    """Look up a named curve."""
    try:
        return NAMED_CURVES[name]
    except KeyError:
        raise ParameterError(
            f"unknown curve {name!r}; available: {sorted(NAMED_CURVES)}"
        ) from None


def validate_named_curve(named: NamedCurve) -> None:
    """Full self-validation; raises :class:`ParameterError` on any failure.

    Because the order is verified to be a prime inside the Hasse interval and
    to annihilate the generator, the check constitutes a proof that ``order``
    really is the order of the generator (and, with cofactor 1, of the whole
    group).
    """
    if not is_probable_prime(named.p):
        raise ParameterError(f"{named.name}: p is not prime")
    if not is_probable_prime(named.order):
        raise ParameterError(f"{named.name}: group order is not prime")
    curve, generator = named.build()
    if not curve.is_on_curve(named.gx, named.gy):
        raise ParameterError(f"{named.name}: generator is not on the curve")
    trace = named.p + 1 - named.order * named.cofactor
    if trace * trace > 4 * named.p:
        raise ParameterError(f"{named.name}: order violates the Hasse bound")
    if not scalar_mult(generator, named.order, "binary").is_infinity():
        raise ParameterError(f"{named.name}: order * G is not the identity")


def generate_toy_curve(
    p: int, rng: Optional[random.Random] = None, require_prime_order: bool = False
) -> NamedCurve:
    """Build a random curve over a tiny prime field with a known group order.

    The group order is obtained by exhaustive counting (so ``p`` must be
    small), and the returned base point has order equal to the largest prime
    factor of the group order.  Used by tests that need a completely
    verifiable group of manageable size.
    """
    if p > 20_000:
        raise ParameterError("toy curves are limited to p <= 20000")
    if not is_probable_prime(p) or p <= 3:
        raise ParameterError("toy curves need a prime p > 3")
    rng = rng or random.Random(p)
    field = PrimeField(p, check_prime=False)
    from repro.nt.factor import factorize

    for _ in range(2000):
        a = rng.randrange(p)
        b = rng.randrange(p)
        try:
            curve = WeierstrassCurve(field, a, b)
        except ParameterError:
            continue
        order = curve.count_points_naive()
        factors = factorize(order)
        largest = max(factors)
        if require_prime_order and largest != order:
            continue
        cofactor = order // largest
        # Find a point of order exactly `largest`.
        for _ in range(200):
            x, y = curve.random_point(rng)
            point = AffinePoint(curve, x, y)
            candidate = scalar_mult(point, cofactor, "binary")
            if candidate.is_infinity():
                continue
            if scalar_mult(candidate, largest, "binary").is_infinity():
                return NamedCurve(
                    name=f"toy-{p}",
                    p=p,
                    a=a,
                    b=b,
                    gx=field.exit(candidate.x),
                    gy=field.exit(candidate.y),
                    order=largest,
                    cofactor=cofactor,
                )
    raise ParameterError(f"could not build a toy curve over F_{p}")
