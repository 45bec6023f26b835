"""Declarative traffic mixes: popularity, arrivals, operation shape.

A :class:`TrafficMix` is pure data — no sockets, no clocks — describing how
a population of clients exercises the serving stack:

* **Scheme popularity** is Zipf-distributed: with exponent ``s``, the
  ``r``-th most popular scheme draws weight ``1 / r**s`` (``s = 0`` is
  uniform).  Real PKI traffic is heavily skewed toward a few dominant
  suites; skew is also what makes the server's same-scheme batching
  effective, so it must be part of the model rather than an accident of
  test ordering.

* **Arrivals are bursty**: each client emits a geometrically-sized burst
  of back-to-back sessions, then sleeps an exponential off-gap.  The
  compound process has the high peak-to-mean ratio that exposes queueing
  tails (p999) a constant-rate harness never sees.

* **The operation mix** splits traffic between long-lived secure channels
  (open once, many authenticated records with per-record think time,
  transparent rekeys) and the one-shot operations the scheme supports
  (key agreement, encryption, signature).

Everything that consumes randomness takes an explicit ``random.Random`` —
a mix plus a seed is a reproducible workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ParameterError

__all__ = [
    "zipf_weights",
    "ArrivalModel",
    "ChannelProfile",
    "TrafficMix",
    "MIXES",
    "HEADLINE_SCHEMES",
    "get_mix",
    "one_shot_mix",
    "ONESHOT_OPERATIONS",
]


def zipf_weights(count: int, exponent: float = 1.0) -> List[float]:
    """Normalised Zipf weights for ``count`` ranks: ``w_r ∝ 1 / r**exponent``.

    >>> [round(w, 3) for w in zipf_weights(3, 1.0)]
    [0.545, 0.273, 0.182]
    >>> zipf_weights(4, 0.0)
    [0.25, 0.25, 0.25, 0.25]
    """
    if count < 1:
        raise ParameterError("zipf_weights needs at least one rank")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


@dataclass(frozen=True)
class ArrivalModel:
    """A bursty arrival process: geometric bursts, exponential off-gaps.

    ``mean_burst`` sessions arrive back-to-back, then the client idles an
    exponential gap with mean ``mean_gap_seconds``.  ``mean_burst = 1`` with
    a gap of 0 degenerates to the classic closed-loop hammer.
    """

    mean_burst: float = 4.0
    mean_gap_seconds: float = 0.01

    def burst_size(self, rng) -> int:
        """One burst's session count (geometric, mean ``mean_burst``, >= 1)."""
        if self.mean_burst <= 1.0:
            return 1
        size = 1
        stop = 1.0 / self.mean_burst
        while rng.random() > stop:  # audit: allow[CT101] workload-shape draw, not key material
            size += 1
        return size

    def gap_seconds(self, rng) -> float:
        """One off-gap between bursts (exponential, mean ``mean_gap_seconds``)."""
        if self.mean_gap_seconds <= 0.0:
            return 0.0
        return rng.expovariate(1.0 / self.mean_gap_seconds)


@dataclass(frozen=True)
class ChannelProfile:
    """The shape of one long-lived channel session.

    A channel carries a geometric number of records (mean
    ``mean_messages``, floor ``min_messages``) of ``payload_bytes`` each,
    pausing ``think_seconds`` between records — the think time is what
    makes channels *long-lived* (they overlap other clients' traffic)
    instead of a burst with extra steps.  ``rekey_after_messages`` forces
    the client's proactive rekey cadence so traffic runs exercise
    transparent rekeys without waiting out the 1024-record default.
    """

    mean_messages: float = 24.0
    min_messages: int = 4
    payload_bytes: int = 32
    think_seconds: float = 0.0
    rekey_after_messages: Optional[int] = None

    def message_count(self, rng) -> int:
        """One channel's record count (geometric around the mean, floored)."""
        if self.mean_messages <= self.min_messages:
            return self.min_messages
        count = 1
        stop = 1.0 / self.mean_messages
        while rng.random() > stop:  # audit: allow[CT101] workload-shape draw, not key material
            count += 1
        return max(self.min_messages, count)


@dataclass(frozen=True)
class TrafficMix:
    """One named workload: who talks to which scheme, how, and how often.

    ``channel_weight`` is the probability a session is a secure channel;
    the rest draws a one-shot operation from ``oneshot_weights``, filtered
    to what the chosen scheme actually supports (a scheme with no matching
    capability falls back to channels, which every registry scheme can
    bootstrap).
    """

    name: str
    schemes: Tuple[str, ...]
    zipf_exponent: float = 1.0
    channel_weight: float = 0.7
    oneshot_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "key-agreement": 0.5,
            "encryption": 0.3,
            "signature": 0.2,
        }
    )
    arrivals: ArrivalModel = field(default_factory=ArrivalModel)
    channels: ChannelProfile = field(default_factory=ChannelProfile)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.oneshot_weights) - set(ONESHOT_OPERATIONS))
        if unknown:
            raise ParameterError(
                f"{self.name}: unknown one-shot operation(s) {unknown}; "
                f"expected {', '.join(ONESHOT_OPERATIONS)}"
            )

    def scheme_weights(self) -> List[Tuple[str, float]]:
        """``(scheme, weight)`` pairs — Zipf over the declared order."""
        weights = zipf_weights(len(self.schemes), self.zipf_exponent)
        return list(zip(self.schemes, weights))

    def pick_scheme(self, rng) -> str:
        roll = rng.random()
        cumulative = 0.0
        pairs = self.scheme_weights()
        for scheme, weight in pairs:
            cumulative += weight
            if roll < cumulative:  # audit: allow[CT101] workload-shape draw, not key material
                return scheme
        return pairs[-1][0]

    def pick_session_kind(self, rng, capabilities) -> str:
        """``"channel"`` or a one-shot operation the scheme supports."""
        if rng.random() < self.channel_weight:  # audit: allow[CT101] workload-shape draw, not key material
            return "channel"
        supported = {
            operation: weight
            for operation, weight in self.oneshot_weights.items()
            if operation in capabilities
        }
        if not supported:
            return "channel"  # every scheme can bootstrap a channel
        roll = rng.random() * sum(supported.values())
        cumulative = 0.0
        for operation, weight in supported.items():
            cumulative += weight
            if roll < cumulative:  # audit: allow[CT101] workload-shape draw, not key material
                return operation
        return next(reversed(supported))


#: The one-shot operations, each named after the scheme capability it
#: needs, in the order ``load --schemes`` prefers them.
ONESHOT_OPERATIONS = ("key-agreement", "encryption", "signature")

#: The paper's four deployed cryptosystems, most to least popular: the
#: presets' schemes and ``python -m repro.serve load``'s default.
HEADLINE_SCHEMES = ("ceilidh-170", "ecdh-p160", "rsa-1024", "xtr-170")

#: The named presets ``python -m repro.serve load --mix`` accepts.
MIXES: Dict[str, TrafficMix] = {
    # The flagship: skewed popularity, bursty arrivals, channel-dominated —
    # the service-shaped workload the channel subsystem exists for.  Rekey
    # every 16 records so every multi-burst channel rotates keys at least
    # once per run.
    "zipf-bursty": TrafficMix(
        name="zipf-bursty",
        schemes=HEADLINE_SCHEMES,
        zipf_exponent=1.0,
        channel_weight=0.7,
        arrivals=ArrivalModel(mean_burst=4.0, mean_gap_seconds=0.01),
        channels=ChannelProfile(
            mean_messages=24.0,
            min_messages=4,
            think_seconds=0.0005,
            rekey_after_messages=16,
        ),
    ),
    # Uniform popularity, no bursts: the control workload — same engine,
    # no skew, for separating the effect of the traffic shape from the
    # effect of the stack.
    "uniform-steady": TrafficMix(
        name="uniform-steady",
        schemes=HEADLINE_SCHEMES,
        zipf_exponent=0.0,
        channel_weight=0.5,
        arrivals=ArrivalModel(mean_burst=1.0, mean_gap_seconds=0.0),
        channels=ChannelProfile(mean_messages=16.0, rekey_after_messages=32),
    ),
    # Nearly everything rides channels with long lifetimes — the steady-
    # state regime where handshake cost should vanish into the noise.
    "channel-heavy": TrafficMix(
        name="channel-heavy",
        schemes=HEADLINE_SCHEMES,
        zipf_exponent=1.0,
        channel_weight=0.95,
        arrivals=ArrivalModel(mean_burst=2.0, mean_gap_seconds=0.005),
        channels=ChannelProfile(
            mean_messages=64.0, min_messages=8, rekey_after_messages=24
        ),
    ),
    # No channels at all: the one-shot counterpart of zipf-bursty, same
    # popularity and arrivals.
    "oneshot-zipf": TrafficMix(
        name="oneshot-zipf",
        schemes=HEADLINE_SCHEMES,
        zipf_exponent=1.0,
        channel_weight=0.0,
        arrivals=ArrivalModel(mean_burst=4.0, mean_gap_seconds=0.01),
    ),
}


def get_mix(name: str) -> TrafficMix:
    """The named preset, or :class:`~repro.errors.ParameterError`."""
    try:
        return MIXES[name]
    except KeyError:
        raise ParameterError(
            f"unknown traffic mix {name!r}; presets: {', '.join(sorted(MIXES))}"
        ) from None


def one_shot_mix(scheme: str, operation: str) -> TrafficMix:
    """A closed-loop capacity mix: every client runs ``operation`` on
    ``scheme`` back to back, no channels, no gaps.

    Named ``<scheme>:<operation>``, the key of its only traffic cell.  An
    operation the scheme lacks falls back to channels, as in any mix.
    """
    return TrafficMix(
        name=f"{scheme}:{operation}",
        schemes=(scheme,),
        channel_weight=0.0,
        oneshot_weights={operation: 1.0},
        arrivals=ArrivalModel(mean_burst=1.0, mean_gap_seconds=0.0),
    )
