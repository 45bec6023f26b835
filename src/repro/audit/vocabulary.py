"""The analyzer's shared vocabulary: sources, propagators, sinks, patterns.

Everything name-based about the analysis lives here, in one place, so the
taint engine and the rule pack stay mechanism and this file stays policy.
The lists encode how taint crosses *call boundaries* without whole-program
type inference:

* **Secret-returning callables** (:data:`SECRET_RETURNING`) — calling any
  of these names (as a function or a method) yields key material: RNG
  sampling, key generation, shared-secret derivation.  The set is extended
  per run by ``Secret[...]``-annotated return types and ``# audit: secret``
  markers on ``def`` lines.

* **Propagators** (:data:`PROPAGATORS`) — calls whose result is secret
  exactly when an argument is: conversions, hashes and KDFs.  Hashing does
  *not* launder a secret for comparison purposes — comparing an
  attacker-supplied guess against a secret-derived digest byte-by-byte is
  precisely the timing oracle ``hmac.compare_digest`` exists for.

* **Everything else is an optimistic boundary.**  ``exponentiate(g, k)``
  with a secret ``k`` returns a *public* group element (that is what makes
  it public-key cryptography), so generic calls do not propagate taint.
  Helpers that genuinely return key material must be named in
  :data:`SECRET_RETURNING`, annotated ``-> Secret[...]``, or marked
  ``# audit: secret`` — the optimistic default is documented policy, not an
  oversight.
"""

from __future__ import annotations

import re

__all__ = [
    "SECRET_RETURNING",
    "RNG_DRAW_METHODS",
    "RNG_RECEIVER_NAMES",
    "PROPAGATORS",
    "SANITIZERS",
    "PUBLIC_ATTRS",
    "SECRET_ATTRS",
    "LOG_SINK_NAMES",
    "PICKLE_SINK_NAMES",
    "FORMAT_SINK_NAMES",
    "HEAVY_ASYNC_CALLS",
    "EXECUTOR_SEAM_NAMES",
    "WIRE_FUNCTION_RE",
    "BATCH_FUNCTION_RE",
    "FUNNEL_CALL_NAMES",
    "VETTED_TAINT_MODULES",
    "SERVE_MODULE_RE",
]

#: Callables (function or method names) whose return value is key material.
SECRET_RETURNING = frozenset(
    {
        "sample_exponent",
        "keygen",
        "keygen_many",
        "key_agreement",
        "key_agreement_many",
        "key_agreement_with_many",
        "shared_secret",
        "shared_secret_many",
        "shared_secret_with_many",
        "derive_key",
        "derive_key_many",
        "derive_key_with_many",
        "ecdh_shared_secret",
        "ecdh_shared_secret_many",
        "ecdh_shared_secret_with_many",
        "ecdh_generate",
        "rsa_generate",
        "generate_keypair",
        "decrypt",
        "open_body",
        "kdf",
        # Channel-layer derivations: both halves of a channel handshake end
        # in key material (directional keystream/tag keys, the bootstrap
        # secret the client encrypts to the server).
        "derive_channel_keys",
        "channel_bootstrap",
    }
)

#: Drawing methods on a ``random.Random``-shaped generator.  A draw is a
#: secret when the generator reached the call through the library's RNG
#: seam (``resolve_rng`` / an ``rng`` parameter) — the sources the issue
#: names — not when some unrelated object happens to share a method name.
RNG_DRAW_METHODS = frozenset(
    {"randrange", "randint", "getrandbits", "randbytes", "choice", "random"}
)

#: Receiver names treated as the library RNG seam for :data:`RNG_DRAW_METHODS`.
RNG_RECEIVER_NAMES = re.compile(r"(^|_)rng$", re.IGNORECASE)

#: Calls through which taint flows from argument to result.
PROPAGATORS = frozenset(
    {
        # conversions and structure
        "int",
        "bytes",
        "bytearray",
        "tuple",
        "list",
        "abs",
        "pow",
        "divmod",
        "min",
        "max",
        "sum",
        "to_bytes",
        "from_bytes",
        "join",
        "hex",
        "fromhex",
        "enumerate",
        "zip",
        "reversed",
        "sorted",
        # hashing / derivation: a digest of a secret is still secret-derived
        # for comparison and logging purposes (timing oracles, leakage).
        "sha256",
        "sha512",
        "sha1",
        "md5",
        "blake2b",
        "blake2s",
        "new",
        "digest",
        "hexdigest",
        "update",
        "confirmation_tag",
        "seal_body",
        # representation funnels preserve the value, hence the taint
        "enter",
        "exit",
        "embed",
        "copy",
        "deepcopy",
        "dumps",  # pickle/json serialization of a secret stays secret
        "encode_compressed",
        "encode_fp6",
        "encode_point",
        "encode_scalar_pair",
    }
)

#: Calls whose result is public whatever went in: cardinalities, type
#: tests, identity, and the one vetted comparator.
SANITIZERS = frozenset(
    {
        "len",
        "type",
        "isinstance",
        "issubclass",
        "id",
        "range",
        "bit_length",
        "compare_digest",
        "constant_time_equal",
    }
)

#: Attribute names that *declassify*: reading these from a tainted object
#: yields public data (the public half of a key pair, sizes, names).
PUBLIC_ATTRS = frozenset(
    {
        "public",
        "public_wire",
        "public_key",
        "public_key_bytes",
        "public_bytes",
        "scheme",
        "name",
        "curve",
        "params",
        "group",
        "field",
        "modulus_bits",
        "n",
        "e",
    }
)

#: Attribute names that are secret wherever they appear — unambiguous key
#: material carriers.  Short/ambiguous names (``p``, ``q``, ``d`` — also a
#: field modulus and prime factors elsewhere) are deliberately absent;
#: those taint only through a tainted object or a ``Secret[...]``
#: annotation on their class.
SECRET_ATTRS = frozenset(
    {"private", "private_key", "secret_exponent", "secret_scalar"}
)

#: Logging/warnings callables (bare or as attributes: ``logger.info``).
LOG_SINK_NAMES = frozenset(
    {
        "print",
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
        "log",
    }
)

#: Pickle entry points — serialized secrets escape the process.
PICKLE_SINK_NAMES = frozenset({"dumps", "dump"})

#: String-formatting callables that interpolate their arguments.
FORMAT_SINK_NAMES = frozenset({"format", "repr", "str", "ascii", "format_map"})

#: Calls that execute group/field arithmetic or whole protocol operations —
#: heavy, synchronous work that must not run on the serve event loop.
HEAVY_ASYNC_CALLS = frozenset(
    {
        "keygen",
        "keygen_many",
        "key_agreement",
        "key_agreement_many",
        "key_agreement_with_many",
        "encrypt",
        "decrypt",
        "sign",
        "sign_many",
        "verify",
        "serve_request",
        "serve_request_batch",
        "server_key",
        "exponentiate",
        "exponentiate_many",
        "exponentiate_shared_base",
        "scalar_mult",
        "scalar_mult_many",
        "montgomery_power",
        "montgomery_power_many",
        "run_batch",
        "run_batch_parallel",
        "build_profile",
    }
)

#: Call names that form the executor seam: a heavy call passed *into* one
#: of these runs in the pool, not on the loop.
EXECUTOR_SEAM_NAMES = frozenset(
    {"run_in_executor", "to_thread", "submit", "map"}
)

#: Function names treated as wire-serialization boundaries for RC202.
WIRE_FUNCTION_RE = re.compile(
    r"(^|_)(encode|decode|serialize|deserialize|pack|unpack)(_|$)|wire|to_bytes|from_bytes"
)

#: Function names treated as batch entry points for RC203's exactly-once
#: RNG resolution contract.
BATCH_FUNCTION_RE = re.compile(r"(_many|_batch|^run_batch|^batch_|_with_many)")

#: Calls that legitimately consume a raw resident representation inside a
#: wire function: the representation funnels themselves plus the
#: compression/encode helpers that funnel internally.
FUNNEL_CALL_NAMES = frozenset(
    {
        "enter",
        "exit",
        "embed",
        "one_value",
        "compress",
        "decompress",
        "contains_raw",
        "trace_of_fp6",
    }
)

#: Modules (paths relative to the scanned root) where secret-dependent
#: control flow is the *documented algorithm*: the strategy kernel hosts
#: every vetted ladder, and its digit recodings/table walks are exactly the
#: place exponent bits are allowed to steer execution.  The README states
#: the honest caveat: only the ``ladder`` strategy has a constant-time
#: *shape*; wNAF/fixed-base are fast paths, and this allowlist encodes
#: policy, not a proof.
VETTED_TAINT_MODULES = frozenset({"exp/strategies.py"})

#: Modules the RC204 event-loop rule applies to.
SERVE_MODULE_RE = re.compile(r"^serve/")
