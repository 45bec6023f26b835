"""The strategy kernel: every exponentiation loop in the library, once.

Each strategy takes a :class:`~repro.exp.group.Group`, a base element and a
non-negative exponent, optionally records group operations into an
:class:`~repro.exp.trace.OpTrace`, and returns the power.  The same
strategies therefore serve field powers, torus exponentiation, Montgomery/RSA
exponentiation and ECC scalar multiplication:

=================  ==========================================================
``binary``         left-to-right square-and-multiply (the paper's strategy)
``naf``            signed non-adjacent form, ~n/3 multiplications
``wnaf``           width-w NAF with odd-power table, ~n/(w+1) multiplications
``split``          k = k0 + k1*lambda over the group's endomorphism: two wNAF
                   strings on one ~bits(lambda) squaring chain
``sliding``        sliding window over an odd-power table (no inversions)
``window``         fixed 2^w-entry window (the historical windowed variant)
``ladder``         Montgomery ladder (regular pattern, side-channel shape)
``fixed_base``     signed fixed-window power table, zero online squarings
``shamir``         Shamir/Straus simultaneous double exponentiation
=================  ==========================================================

Signed strategies pay one inversion per distinct negative digit value, which
is free exactly where the paper exploits it (torus Frobenius, point negation);
:func:`select_strategy` uses the group's ``cheap_inverse`` flag to pick wNAF
there and the inversion-free sliding window elsewhere, and picks ``split``
for exponents wider than a declared endomorphism's ``lambda`` (the p-power
Frobenius on the torus).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ParameterError
from repro.exp.group import Group
from repro.exp.trace import OpTrace

Strategy = Callable[..., Any]

#: Name -> strategy function.  Populated by :func:`register_strategy`.
STRATEGIES: Dict[str, Strategy] = {}


def register_strategy(name: str) -> Callable[[Strategy], Strategy]:
    def wrap(fn: Strategy) -> Strategy:
        STRATEGIES[name] = fn
        return fn

    return wrap


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown exponentiation strategy {name!r}; "
            f"available: {', '.join(available_strategies())}"
        ) from None


def available_strategies() -> List[str]:
    return sorted(STRATEGIES)


# ---------------------------------------------------------------------------
# Trace bookkeeping and recoding helpers.
# ---------------------------------------------------------------------------


def _bound_ops(group: Group, trace: Optional[OpTrace]):
    """Bind this run's (square, op, inverse) callables exactly once.

    This is the engine's null-trace fast path: with ``trace=None`` the
    strategies call the group's bound methods directly — no per-operation
    ``if trace is not None`` branch, no counting closure, zero bookkeeping.
    With a trace, each callable increments the tally and delegates, so
    traced and untraced runs execute the *same* group operations in the
    same order and return identical elements.
    """
    if trace is None:
        return group.square, group.op, group.inverse

    group_square, group_op, group_inverse = group.square, group.op, group.inverse

    def square(a: Any) -> Any:
        trace.squarings += 1
        return group_square(a)

    def op(a: Any, b: Any) -> Any:
        trace.multiplications += 1
        return group_op(a, b)

    def inverse(a: Any) -> Any:
        trace.inversions += 1
        return group_inverse(a)

    return square, op, inverse


def naf_digits(exponent: int) -> List[int]:
    """Non-adjacent form, least-significant digit first, digits in {-1, 0, 1}."""
    return wnaf_digits(exponent, 2)


def wnaf_digits(exponent: int, width: int) -> List[int]:
    """Width-``w`` NAF, least-significant first; non-zero digits are odd and
    lie in ``(-2^(w-1), 2^(w-1))``, with at least ``w-1`` zeros between them.

    Width 1 gives the NAF, like width 2.  Each run of zero bits is emitted
    in one step, so the loop turns once per non-zero digit, not per bit.
    """
    width = max(width, 2)
    digits: List[int] = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    while exponent > 0:
        zeros = (exponent & -exponent).bit_length() - 1
        if zeros:
            digits += [0] * zeros
            exponent >>= zeros
        digit = exponent & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        exponent = (exponent - digit) >> 1
    return digits


def wnaf_recoding(exponent: int, width: int) -> Tuple[int, ...]:
    """Width-w NAF recoding, most-significant digit first.

    Deliberately **not** memoised: wNAF is the default path for secret
    exponents (ephemerals, signature nonces, server keys), and a
    process-wide cache keyed by exponent would retain every secret it ever
    saw for the life of the process.  Recoding is pure integer work —
    well under 1% of a protocol session — so the fixed-base tables (built
    from the *public* generator) carry the per-key amortisation instead.
    """
    return tuple(reversed(wnaf_digits(exponent, width)))


def default_window_bits(exponent_bits: int) -> int:
    """Window width minimising table-build plus per-digit multiplications."""
    if exponent_bits < 24:
        return 2
    if exponent_bits < 80:
        return 3
    if exponent_bits < 240:
        return 4
    if exponent_bits < 768:
        return 5
    return 6


def check_window_bits(window_bits: int) -> None:
    if not 1 <= window_bits <= 8:
        raise ParameterError("window width must be between 1 and 8 bits")


def _odd_power_table(square, op, base: Any, limit: int) -> Dict[int, Any]:
    """Precompute ``{1: g, 3: g^3, ..., limit: g^limit}`` for odd ``limit >= 1``."""
    table = {1: base}
    if limit >= 3:
        base_squared = square(base)
        current = base
        for k in range(3, limit + 1, 2):
            current = op(current, base_squared)
            table[k] = current
    return table


# ---------------------------------------------------------------------------
# Strategies.  All take exponent >= 0 (the front door handles negatives).
# ---------------------------------------------------------------------------


@register_strategy("binary")
def exp_binary(
    group: Group, base: Any, exponent: int, trace: Optional[OpTrace] = None, **_: Any
) -> Any:
    """Left-to-right square-and-multiply: n-1 squarings, popcount-1 products."""
    if exponent == 0:
        return group.identity()
    square, op, _ = _bound_ops(group, trace)
    result = base
    for bit in bin(exponent)[3:]:
        result = square(result)
        if bit == "1":
            result = op(result, base)
    return result


def _signed_digit_walk(
    group: Group,
    square,
    op,
    digits,
    lookup: Callable[[int], Any],
) -> Any:
    """Left-to-right walk over signed digits (most-significant first).

    The accumulator stays un-materialised (``None``) until the first non-zero
    digit, so leading squarings of the identity are neither performed nor
    counted — matching how the historical per-layer loops behaved.
    """
    result = None
    for digit in digits:
        if result is not None:
            result = square(result)
        if digit:
            operand = lookup(digit)
            if result is None:
                result = operand
            else:
                result = op(result, operand)
    return group.identity() if result is None else result


@register_strategy("naf")
def exp_naf(
    group: Group, base: Any, exponent: int, trace: Optional[OpTrace] = None, **_: Any
) -> Any:
    """Signed-digit (NAF) recoding: ~n/3 general multiplications.

    Pays one base inversion, which is free where ``cheap_inverse`` holds (the
    torus's Frobenius, point negation on a curve).
    """
    if exponent == 0:
        return group.identity()
    square, op, inv = _bound_ops(group, trace)
    digits = naf_digits(exponent)
    inverse = None
    if any(d < 0 for d in digits):
        inverse = inv(base)
    return _signed_digit_walk(
        group,
        square,
        op,
        reversed(digits),
        lambda d: base if d > 0 else inverse,
    )


@register_strategy("wnaf")
def exp_wnaf(
    group: Group,
    base: Any,
    exponent: int,
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
    **_: Any,
) -> Any:
    """Width-w NAF with a table of odd powers: ~n/(w+1) multiplications.

    The recoding is recomputed per call on purpose — see
    :func:`wnaf_recoding` for why memoising it would retain secret
    exponents process-wide.
    """
    if window_bits is None:
        window_bits = max(2, default_window_bits(exponent.bit_length()))
    check_window_bits(window_bits)
    if exponent == 0:
        return group.identity()
    square, op, inv = _bound_ops(group, trace)
    digits = wnaf_recoding(exponent, window_bits)
    largest = max(map(abs, digits))
    table = _odd_power_table(square, op, base, largest)
    return _signed_digit_walk(group, square, op, digits, _signed_lookup(table, inv))


def _signed_lookup(table: Dict[int, Any], inv) -> Callable[[int], Any]:
    """Digit -> table operand; a negative digit inverts its entry once."""
    negatives: Dict[int, Any] = {}

    def lookup(digit: int) -> Any:
        if digit > 0:
            return table[digit]
        cached = negatives.get(-digit)
        if cached is None:
            cached = inv(table[-digit])
            negatives[-digit] = cached
        return cached

    return lookup


@register_strategy("split")
def exp_split(
    group: Group,
    base: Any,
    exponent: int,
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
    **_: Any,
) -> Any:
    """Endomorphism split: ``g^k = g^k0 * phi(g)^k1`` with ``k = k0 + k1*lambda``.

    ``phi(g) == g^lambda`` holds for every element, so ``divmod`` is the
    whole decomposition: no lattice basis, no subgroup assumption.  One
    odd-power table of ``g`` is built and mapped through ``phi`` for ``k1``'s
    digits, and both wNAF strings share one squaring chain of
    ~max(bits(lambda), bits(k1)) steps instead of bits(k); the endomorphism
    maps are not group operations and are not traced.  Groups without an
    endomorphism, and exponents no wider than ``lambda``, run the strategy
    ``auto`` picks for them.
    """
    lam = group.endomorphism_exponent
    if lam is None or exponent.bit_length() <= lam.bit_length():
        fallback = get_strategy(select_strategy(group, exponent))
        return fallback(group, base, exponent, trace=trace, window_bits=window_bits)
    if window_bits is None:
        # Sized by the full width: the table serves both digit strings.
        window_bits = max(2, default_window_bits(exponent.bit_length()))
    check_window_bits(window_bits)
    square, op, inv = _bound_ops(group, trace)
    high, low = divmod(exponent, lam)
    low_digits = wnaf_digits(low, window_bits)
    high_digits = wnaf_digits(high, window_bits)
    largest = max(map(abs, low_digits + high_digits))
    table = _odd_power_table(square, op, base, largest)
    mapped = {digit: group.endomorphism(power) for digit, power in table.items()}
    low_lookup = _signed_lookup(table, inv)
    high_lookup = _signed_lookup(mapped, inv)
    length = max(len(low_digits), len(high_digits))
    low_digits += [0] * (length - len(low_digits))
    high_digits += [0] * (length - len(high_digits))
    result = None
    for low_digit, high_digit in zip(reversed(low_digits), reversed(high_digits)):
        if result is not None:
            result = square(result)
        if low_digit:
            operand = low_lookup(low_digit)
            result = operand if result is None else op(result, operand)
        if high_digit:
            operand = high_lookup(high_digit)
            result = operand if result is None else op(result, operand)
    return result


@register_strategy("sliding")
def exp_sliding(
    group: Group,
    base: Any,
    exponent: int,
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
    **_: Any,
) -> Any:
    """Sliding window over odd powers — the inversion-free fast path."""
    if window_bits is None:
        window_bits = default_window_bits(exponent.bit_length())
    check_window_bits(window_bits)
    if exponent == 0:
        return group.identity()
    if window_bits == 1:
        return exp_binary(group, base, exponent, trace)
    square, op, _ = _bound_ops(group, trace)
    bits = bin(exponent)[2:]
    # First pass: recode into (chunk, width) events — chunk 0 is one squaring,
    # an odd chunk is `width` squarings then one table multiplication.
    events: List[tuple] = []
    i = 0
    while i < len(bits):
        if bits[i] == "0":
            events.append((0, 1))
            i += 1
            continue
        # Longest window starting here that ends in a 1 (so the chunk is odd).
        j = min(i + window_bits, len(bits))
        while bits[j - 1] == "0":
            j -= 1
        events.append((int(bits[i:j], 2), j - i))
        i = j
    # Size the table by the largest chunk that actually occurs, so sparse
    # exponents (e.g. RSA's 65537) never pay for unused entries.
    largest = max(chunk for chunk, _width in events)
    table = _odd_power_table(square, op, base, largest)
    result = None
    for chunk, width in events:
        if chunk == 0:
            result = square(result)
        elif result is None:
            result = table[chunk]
        else:
            for _unused in range(width):
                result = square(result)
            result = op(result, table[chunk])
    return result


@register_strategy("window")
def exp_window(
    group: Group,
    base: Any,
    exponent: int,
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
    **_: Any,
) -> Any:
    """Fixed 2^w-entry window (the historical windowed variant of each layer)."""
    if window_bits is None:
        window_bits = default_window_bits(exponent.bit_length())
    check_window_bits(window_bits)
    if exponent == 0:
        return group.identity()
    square, op, _ = _bound_ops(group, trace)
    table = [group.identity(), base]
    for _unused in range((1 << window_bits) - 2):
        table.append(op(table[-1], base))
    digits: List[int] = []
    e = exponent
    mask = (1 << window_bits) - 1
    while e:
        digits.append(e & mask)
        e >>= window_bits
    digits.reverse()
    result = table[digits[0]]
    for digit in digits[1:]:
        for _unused in range(window_bits):
            result = square(result)
        if digit:
            result = op(result, table[digit])
    return result


@register_strategy("ladder")
def exp_ladder(
    group: Group, base: Any, exponent: int, trace: Optional[OpTrace] = None, **_: Any
) -> Any:
    """Montgomery ladder: one squaring and one multiplication per bit."""
    if exponent == 0:
        return group.identity()
    square, op, _ = _bound_ops(group, trace)
    r0 = group.identity()
    r1 = base
    for bit in bin(exponent)[2:]:
        if bit == "1":
            r0 = op(r0, r1)
            r1 = square(r1)
        else:
            r1 = op(r0, r1)
            r0 = square(r0)
    return r0


@register_strategy("fixed_base")
def exp_fixed_base(
    group: Group, base: Any, exponent: int, trace: Optional[OpTrace] = None, **_: Any
) -> Any:
    """One-shot fixed-base strategy: build the table, then use it.

    Only sensible through the registry for cost comparisons; real fixed-base
    users keep a :class:`FixedBaseTable` across many exponentiations so the
    table is paid once and each power costs only its digits' products
    (:func:`expected_counts` models them).
    """
    table = FixedBaseTable(group, base, max(1, exponent.bit_length()), trace=trace, uses=1)
    return table.power(exponent, trace=trace)


# ---------------------------------------------------------------------------
# Fixed-base precomputation.
# ---------------------------------------------------------------------------


#: Width of a table kept for the life of its base (the generator tables):
#: each power then costs ~n/4 * 15/16 products.  The build, 8 entries per 4
#: bits of rows, matches one power per exponent bit on the torus (whose rows
#: cover only bits(p)) and doubles it on a curve; it is paid once.
CACHED_TABLE_WIDTH = 4

#: Widest window :func:`fixed_base_width` considers for a batch.
_MAX_TABLE_WIDTH = 6


def fixed_window_digits(exponent: int, width: int, ties_negative: bool = True) -> List[int]:
    """Signed fixed-window digits of ``exponent >= 0``, least significant first.

    Digit ``i`` has weight ``2^(width*i)`` and lies in
    ``[-2^(width-1), 2^(width-1)]``, so a table row needs only the
    ``2^(width-1)`` positive multiples.  A digit of exactly ``2^(width-1)``
    turns negative (carrying one) when ``ties_negative`` holds and the next
    window is odd: at width 1 that is the NAF, and without it width 1 is
    plain binary, the recoding for groups whose inversion is not free.
    """
    digits: List[int] = []
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    while exponent:
        digit = exponent & mask
        exponent >>= width
        if digit > half or (ties_negative and digit == half and exponent & 1):
            digit -= mask + 1
            exponent += 1
        digits.append(digit)
    return digits


def _products_per_power(width: int, exponent_bits: int) -> float:
    """Expected products of one power from a signed table: one per non-zero
    digit, a third of the bits at width 1 (the NAF)."""
    if width == 1:
        return exponent_bits / 3
    return exponent_bits / width * (1 - 2.0 ** -width)


def _table_bits(group: Group, exponent_bits: int) -> int:
    """Exponent bits a table's rows must cover.

    With an endomorphism ``phi(g) = g^lambda`` a power splits as
    ``e0 + e1*lambda`` and both halves share the rows, so they cover the
    wider of ``e0 < lambda`` and ``e1``.
    """
    lam = group.endomorphism_exponent
    if lam is None:
        return exponent_bits
    lam_bits = lam.bit_length()
    return max(min(exponent_bits, lam_bits), exponent_bits - lam_bits + 1)


def fixed_base_width(group: Group, exponent_bits: int, uses: Optional[int] = None) -> int:
    """The window width of a :class:`FixedBaseTable` serving ``uses`` powers.

    ``None`` means a table kept for the life of its base:
    :data:`CACHED_TABLE_WIDTH`.  Otherwise the width minimising table
    entries plus ``uses`` times the expected products per power, counting
    every group operation alike (two powers of 160 bits pick 1, twenty pick
    4).  Groups without a free inversion always get width 1 with unsigned
    digits, so their tables never invert.
    """
    if not group.cheap_inverse:
        return 1
    if uses is None:
        return CACHED_TABLE_WIDTH
    rows_bits = _table_bits(group, exponent_bits)
    powers = uses

    def cost(width: int) -> float:
        rows = -(-rows_bits // width) + 1
        return (rows << (width - 1)) + powers * _products_per_power(width, exponent_bits)

    return min(range(1, _MAX_TABLE_WIDTH + 1), key=cost)


class FixedBaseTable:
    """Signed fixed-window table of a fixed base: no online squarings.

    Row ``i`` holds ``g^(d * 2^(w*i))`` for ``d = 1 .. 2^(w-1)``, so a power
    is one table entry per non-zero digit of :func:`fixed_window_digits`,
    inverted for a negative digit (a free Frobenius on the torus, a
    negation on a curve): ~n/w * (1 - 2^-w) products for an n-bit exponent,
    n/3 at width 1 where the digits are the NAF (n/2, plain binary, on
    groups without a free inversion).  Building a row costs ``2^(w-1)``
    group operations, its even entries squarings.  For a group with an
    endomorphism ``phi(g) = g^lambda`` (the torus's p-power Frobenius) the
    exponent splits as ``e0 + e1*lambda``: the rows cover only
    ~bits(lambda), and the product for ``e1`` is mapped through ``phi``
    once per power.

    The width follows from how many powers the table will serve
    (:func:`fixed_base_width`): :data:`CACHED_TABLE_WIDTH` for tables kept
    with their base, the cheapest width for a batch of ``uses``.  Rows
    extend on demand for wider exponents.
    """

    def __init__(
        self,
        group: Group,
        base: Any,
        max_bits: int,
        trace: Optional[OpTrace] = None,
        uses: Optional[int] = None,
    ):
        if max_bits < 1:
            raise ParameterError("fixed-base table needs max_bits >= 1")
        self.group = group
        self.base = base
        self.window_bits = fixed_base_width(group, max_bits, uses)
        self._lam = group.endomorphism_exponent
        self._rows: List[List[Any]] = []
        bits = _table_bits(group, max_bits)
        self._extend(-(-bits // self.window_bits) + 1, trace)

    def _extend(self, rows: int, trace: Optional[OpTrace] = None) -> None:
        if len(self._rows) >= rows:
            return
        square, op, _ = _bound_ops(self.group, trace)
        half = 1 << (self.window_bits - 1)
        while len(self._rows) < rows:
            # g^(2^(w*i)) is the square of the previous row's top entry.
            first = square(self._rows[-1][-1]) if self._rows else self.base
            row = [first]
            for d in range(2, half + 1):
                row.append(square(row[d // 2 - 1]) if d % 2 == 0 else op(row[-1], first))
            self._rows.append(row)

    def power(self, exponent: int, trace: Optional[OpTrace] = None) -> Any:
        """``base^exponent`` from the stored rows alone."""
        group = self.group
        _, op, inv = _bound_ops(group, trace)
        if exponent < 0:
            return inv(self.power(-exponent, trace))
        if exponent == 0:
            return group.identity()
        if self._lam is None:
            return self._product(exponent, op, inv, trace)
        high, low = divmod(exponent, self._lam)
        result = self._product(low, op, inv, trace)
        if high:
            mapped = group.endomorphism(self._product(high, op, inv, trace))
            result = mapped if result is None else op(result, mapped)
        return result

    def _product(self, exponent: int, op, inv, trace: Optional[OpTrace]) -> Any:
        """One table entry per non-zero digit, multiplied; ``None`` for 0."""
        if not exponent:
            return None
        digits = fixed_window_digits(
            exponent, self.window_bits, ties_negative=self.group.cheap_inverse
        )
        self._extend(len(digits), trace)
        result = None
        for row, digit in zip(self._rows, digits):
            if digit:
                entry = row[digit - 1] if digit > 0 else inv(row[-digit - 1])
                result = entry if result is None else op(result, entry)
        return result


# ---------------------------------------------------------------------------
# Front door.
# ---------------------------------------------------------------------------


def select_strategy(group: Group, exponent: int) -> str:
    """Default strategy choice: ``split`` for exponents wider than the
    group's endomorphism exponent, binary for tiny exponents, then wNAF where
    inversion is free and sliding window elsewhere."""
    lam = group.endomorphism_exponent
    if lam is not None and exponent.bit_length() > lam.bit_length():
        return "split"
    if exponent.bit_length() <= 16:
        return "binary"
    return "wnaf" if group.cheap_inverse else "sliding"


def exponentiate(
    group: Group,
    base: Any,
    exponent: int,
    strategy: str = "auto",
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> Any:
    """Compute ``base^exponent`` in ``group`` with the named strategy.

    Negative exponents invert the base once (cheap on the torus and on
    curves) and proceed with ``-exponent``.  ``strategy="auto"`` delegates to
    :func:`select_strategy`.
    """
    if exponent < 0:
        _, _, inv = _bound_ops(group, trace)
        base = inv(base)
        exponent = -exponent
    if strategy == "auto":
        strategy = select_strategy(group, exponent)
    fn = get_strategy(strategy)
    return fn(group, base, exponent, trace=trace, window_bits=window_bits)


#: Below this exponent width a shared table cannot beat plain binary.
_SHARED_TABLE_MIN_BITS = 17


def exponentiate_shared_base(
    group: Group,
    base: Any,
    exponents,
    strategy: str = "auto",
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> List[Any]:
    """``base^e`` for one base and many exponents, sharing the precomputation.

    With two or more wide exponents one :class:`FixedBaseTable` of the
    cheapest width for the batch size (:func:`fixed_base_width`), paid
    once, serves the whole batch, so each element costs only its digits'
    products: the multiplicative analogue of ``inv_many``'s one-inversion
    trick.  Exact group arithmetic makes the results value-identical to
    looping :func:`exponentiate`, which remains the fallback for short
    batches and tiny exponents.
    """
    exponents = [int(e) for e in exponents]
    if len(exponents) >= 2:
        max_bits = max(abs(e).bit_length() for e in exponents)
        if max_bits >= _SHARED_TABLE_MIN_BITS:
            table = FixedBaseTable(group, base, max_bits, trace=trace, uses=len(exponents))
            return [table.power(e, trace=trace) for e in exponents]
    return [
        exponentiate(
            group, base, e, strategy=strategy, trace=trace, window_bits=window_bits
        )
        for e in exponents
    ]


def exponentiate_many(
    group: Group,
    bases,
    exponents,
    strategy: str = "auto",
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> List[Any]:
    """Index-aligned batch ``bases[i]^exponents[i]`` in one engine call.

    The batch front door: runs of items sharing a base (the serve
    scheduler's per-(scheme, kind) groups all exponentiate one server key or
    one generator) are detected and funnelled through
    :func:`exponentiate_shared_base`; everything else — distinct bases and
    short batches — takes the per-item
    :func:`exponentiate` path with its strategy tables built per call.
    Byte-identical to N single calls by contract.
    """
    bases = list(bases)
    exponents = [int(e) for e in exponents]
    if len(bases) != len(exponents):
        raise ParameterError(
            f"exponentiate_many: length mismatch ({len(bases)} vs {len(exponents)})"
        )
    if len(bases) < 2:
        return [
            exponentiate(
                group, b, e, strategy=strategy, trace=trace, window_bits=window_bits
            )
            for b, e in zip(bases, exponents)
        ]

    def _same(a: Any, b: Any) -> bool:
        if a is b:
            return True
        try:
            return bool(a == b)
        except Exception:  # pragma: no cover - exotic element types
            return False

    groups: List[List[Any]] = []  # [base, [indices]]
    for index, base in enumerate(bases):
        for entry in groups:
            if _same(entry[0], base):
                entry[1].append(index)
                break
        else:
            groups.append([base, [index]])
    results: List[Any] = [None] * len(bases)
    for base, indices in groups:
        batch = exponentiate_shared_base(
            group,
            base,
            [exponents[i] for i in indices],
            strategy=strategy,
            trace=trace,
            window_bits=window_bits,
        )
        for i, value in zip(indices, batch):
            results[i] = value
    return results


def double_exponentiate(
    group: Group,
    base_a: Any,
    exponent_a: int,
    base_b: Any,
    exponent_b: int,
    trace: Optional[OpTrace] = None,
) -> Any:
    """Shamir/Straus simultaneous exponentiation: ``a^ea * b^eb``.

    One shared squaring chain over ``max(bits(ea), bits(eb))`` plus at most
    one multiplication per bit (expected 3/4), against the two full chains of
    independent exponentiations — the trick behind ECDSA-style
    ``u1*G + u2*Q`` verification.
    """
    square, op, inv = _bound_ops(group, trace)
    if exponent_a < 0:
        base_a = inv(base_a)
        exponent_a = -exponent_a
    if exponent_b < 0:
        base_b = inv(base_b)
        exponent_b = -exponent_b
    if exponent_a == 0:
        return exponentiate(group, base_b, exponent_b, trace=trace)
    if exponent_b == 0:
        return exponentiate(group, base_a, exponent_a, trace=trace)
    both = None  # a*b, built lazily on the first shared digit column
    result = None
    for shift in range(max(exponent_a.bit_length(), exponent_b.bit_length()) - 1, -1, -1):
        if result is not None:
            result = square(result)
        bit_a = (exponent_a >> shift) & 1
        bit_b = (exponent_b >> shift) & 1
        if not (bit_a or bit_b):
            continue
        if bit_a and bit_b:
            if both is None:
                both = op(base_a, base_b)
            operand = both
        else:
            operand = base_a if bit_a else base_b
        if result is None:
            result = operand
        else:
            result = op(result, operand)
    return group.identity() if result is None else result


# ---------------------------------------------------------------------------
# Closed-form expected costs (analytical models, ablations, Table 3).
# ---------------------------------------------------------------------------


def expected_counts(
    strategy: str, exponent_bits: int, window_bits: Optional[int] = None
) -> OpTrace:
    """Expected squaring/multiplication counts for a random ``n``-bit exponent.

    The ``binary``, ``naf`` and ``window`` forms reproduce the historical
    torus closed forms used by the Table 3 cost model; the others follow the
    standard averages (wNAF/sliding: ~n/(w+1) window hits plus the odd-power
    table of 2^(w-1) - 1 products and one squaring).  ``fixed_base`` is the
    online cost of one power from a prebuilt :class:`FixedBaseTable`
    (default width :data:`CACHED_TABLE_WIDTH`): no squarings and one
    product per non-zero signed digit, ~n/w * (1 - 2^-w), or n/3 at width 1.
    """
    n = exponent_bits
    if n < 1:
        raise ParameterError("exponent_bits must be positive")
    if strategy == "binary":
        return OpTrace(squarings=n - 1, multiplications=(n - 1) // 2)
    if strategy == "naf":
        return OpTrace(squarings=n, multiplications=n // 3)
    if strategy == "fixed_base":
        w = window_bits if window_bits is not None else CACHED_TABLE_WIDTH
        check_window_bits(w)
        return OpTrace(squarings=0, multiplications=round(_products_per_power(w, n)))
    w = window_bits if window_bits is not None else default_window_bits(n)
    check_window_bits(w)
    if strategy == "window":
        return OpTrace(squarings=n, multiplications=n // w + (1 << w) - 2)
    if strategy == "wnaf":
        table = (1 << max(w - 1, 1)) - 1
        return OpTrace(squarings=n + 1, multiplications=n // (w + 1) + table // 2)
    if strategy == "sliding":
        table = (1 << (w - 1)) - 1
        return OpTrace(squarings=n + 1, multiplications=n // (w + 1) + table)
    if strategy == "ladder":
        return OpTrace(squarings=n, multiplications=n)
    if strategy == "shamir":
        return OpTrace(squarings=n, multiplications=3 * n // 4 + 1)
    raise ParameterError(f"unknown strategy {strategy!r}")
