"""The committed truth set: seeded wire transcripts and exact operation counts.

Two things pin what a speed-up must not change:

* per registry scheme, the SHA-256 of a seeded wire transcript — public
  keys, the key-agreement confirmation tag, a hybrid ciphertext and its
  recovered plaintext, a signature, and a secure channel (open, three
  records each way, a rekey and one more record each way) driven sans-IO
  through :class:`repro.serve.channel.ChannelCrypto`;
* per headline ``(scheme, operation)`` cell, the OpTrace tallies, wire
  bytes and projected platform cycles of a small seeded
  :func:`repro.pkc.bench.run_batch`.

Every value is exact, so the check has no timing noise, and every value is
the same on the plain and montgomery field backends.
``tests/test_truth_set.py`` recomputes the set on the backend
``REPRO_FIELD_BACKEND`` selects and compares it with the committed file.

Regenerate after a change that is *meant* to move a value (the helper
computes the set on both backends and refuses to write if they disagree),
and record the before and after in CHANGES.md::

    PYTHONPATH=src python tests/truthset.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import struct
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.pkc import available_schemes, get_scheme
from repro.pkc.base import ENCRYPTION, KEY_AGREEMENT, SIGNATURE
from repro.pkc.bench import BATCH_OPERATIONS, run_batch
from repro.serve.channel import CLIENT_TO_SERVER, SERVER_TO_CLIENT, ChannelCrypto
from repro.serve.protocol import confirmation_tag

TRUTH_SET_PATH = pathlib.Path(__file__).parent / "data" / "truth_set.json"

#: Backends the committed file is computed and cross-checked on.
BACKENDS = ("plain", "montgomery")

#: The Table 3 schemes whose batch cells are pinned (BENCH_pkc.json's rows).
HEADLINE_SCHEMES = ("ceilidh-170", "ecdh-p160", "rsa-1024", "xtr-170")

#: Sessions per pinned batch: two, so key agreement takes the coalesced path.
BATCH_SESSIONS = 2

#: Plaintext sizes of the three channel records: empty, odd and multi-block.
RECORD_SIZES = (0, 33, 4700)

SEED = 20260

MESSAGE = b"truth-set message"
KA_INFO = b"truth-set"
CHANNEL_ID = b"truthset"


def _digest(items: List[bytes]) -> str:
    """SHA-256 over length-prefixed items, so item boundaries count too."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(struct.pack(">I", len(item)) + item)
    return digest.hexdigest()


def _secret(scheme, own, peer, rng: random.Random) -> Tuple[bytes, List[bytes]]:
    """A channel bootstrap secret and the wire bytes that established it.

    Key agreement where the scheme has it; otherwise the client picks the
    secret and encrypts it to the server's key (KEM-style), as the serving
    layer does for RSA.
    """
    if KEY_AGREEMENT in scheme.capabilities:
        client = scheme.key_agreement(peer, own.public_wire, info=KA_INFO)
        server = scheme.key_agreement(own, peer.public_wire, info=KA_INFO)
        assert client == server, f"{scheme.name}: key agreement mismatch"
        return server, [peer.public_wire]
    chosen = bytes(rng.randrange(256) for _ in range(32))
    kex = scheme.encrypt(own.public_wire, chosen, rng)
    assert scheme.decrypt(own, kex) == chosen, f"{scheme.name}: KEM mismatch"
    return chosen, [kex]


def _records(client: ChannelCrypto, server: ChannelCrypto, sizes) -> Iterator[bytes]:
    """Seal each plaintext on the client, open it on the server, and back."""
    for size in sizes:
        plaintext = bytes((7 * i + size) & 0xFF for i in range(size))
        record = client.seal(plaintext)
        assert server.open(record) == plaintext
        reply = server.seal(plaintext[::-1])
        assert client.open(reply) == plaintext[::-1]
        yield record
        yield reply


def transcript(name: str, backend: Optional[str] = None) -> Dict[str, str]:
    """Per-part SHA-256 of one scheme's seeded wire transcript."""
    scheme = get_scheme(name, fresh=True, backend=backend)
    rng = random.Random(SEED)
    own = scheme.keygen(rng)
    peer = scheme.keygen(rng)
    parts: Dict[str, str] = {"public_keys": _digest([own.public_wire, peer.public_wire])}
    if KEY_AGREEMENT in scheme.capabilities:
        secret = scheme.key_agreement(own, peer.public_wire, info=KA_INFO)
        parts["key_agreement"] = _digest([confirmation_tag(secret)])
    if ENCRYPTION in scheme.capabilities:
        ciphertext = scheme.encrypt(own.public_wire, MESSAGE, rng)
        parts["encryption"] = _digest([ciphertext, scheme.decrypt(own, ciphertext)])
    if SIGNATURE in scheme.capabilities:
        signature = scheme.sign(own, MESSAGE, rng)
        assert scheme.verify(own.public_wire, MESSAGE, signature)
        parts["signature"] = _digest([signature])

    secret, wire = _secret(scheme, own, peer, rng)
    client = ChannelCrypto(secret, CHANNEL_ID, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
    server = ChannelCrypto(secret, CHANNEL_ID, SERVER_TO_CLIENT, CLIENT_TO_SERVER)
    wire.append(confirmation_tag(secret))
    wire.extend(_records(client, server, RECORD_SIZES))
    # The rekey bootstraps a fresh secret (a fresh client key, or a fresh
    # KEM seed for schemes without key agreement).
    peer = scheme.keygen(rng)
    secret, rekey_wire = _secret(scheme, own, peer, rng)
    wire.extend(rekey_wire)
    client.rekey(secret)
    server.rekey(secret)
    wire.extend(_records(client, server, RECORD_SIZES[1:2]))
    parts["channel"] = _digest(wire)
    return parts


def batch_cells(backend: Optional[str] = None) -> Dict[str, Dict[str, int]]:
    """Tallies, wire bytes and projected cycles of every pinned batch cell."""
    from repro.soc.system import Platform

    platform = Platform()
    cells: Dict[str, Dict[str, int]] = {}
    for name in HEADLINE_SCHEMES:
        for operation in sorted(BATCH_OPERATIONS):
            scheme = get_scheme(name, fresh=True, backend=backend)
            if BATCH_OPERATIONS[operation] not in scheme.capabilities:
                continue
            result = run_batch(scheme, operation, BATCH_SESSIONS, rng=random.Random(SEED))
            cost_sq, cost_mul = scheme.platform_cycles_per_operation(platform)
            ops = result.ops
            cells[f"{name}:{operation}"] = {
                "squarings": ops.squarings,
                "multiplications": ops.multiplications,
                "inversions": ops.inversions,
                "wire_bytes": result.wire_bytes,
                "projected_cycles": ops.squarings * cost_sq + ops.multiplications * cost_mul,
            }
    return cells


def compute(backend: Optional[str] = None) -> dict:
    """The whole truth set, recomputed on one backend."""
    return {
        "transcripts": {name: transcript(name, backend) for name in available_schemes()},
        "batch": batch_cells(backend),
    }


def load() -> dict:
    with open(TRUTH_SET_PATH) as handle:
        return json.load(handle)


def first_difference(expected: dict, actual: dict, what: str) -> Optional[str]:
    """The first differing key of two nested dicts and every field of it
    that differs, as a message; ``None`` when they are equal."""
    for key in sorted(set(expected) | set(actual)):
        if key not in actual or key not in expected:
            side = "missing from the recomputed set" if key not in actual else "not in the truth set"
            return f"{key} {what}: {side}"
        fields = sorted(set(expected[key]) | set(actual[key]))
        changed = [
            f"{field} {expected[key].get(field)!r} -> {actual[key].get(field)!r}"
            for field in fields
            if expected[key].get(field) != actual[key].get(field)
        ]
        if changed:
            return f"{key} {what} differs (truth set -> recomputed): " + "; ".join(changed)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the committed file")
    if not parser.parse_args(argv).write:
        parser.error("pass --write to regenerate the committed file")
    document = compute(BACKENDS[0])
    for backend in BACKENDS[1:]:
        other = compute(backend)
        problem = first_difference(
            document["transcripts"], other["transcripts"], "transcript"
        ) or first_difference(document["batch"], other["batch"], "batch")
        if problem:
            raise SystemExit(f"{BACKENDS[0]} and {backend} disagree: {problem}")
    TRUTH_SET_PATH.parent.mkdir(exist_ok=True)
    with open(TRUTH_SET_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TRUTH_SET_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
