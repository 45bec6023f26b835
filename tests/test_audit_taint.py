"""Per-rule fixtures for the secret-taint rules (CT101-CT104).

Every rule gets at least one planted violation and a clean twin — the same
shape with the secret flow removed — so the suite proves both that the rule
fires and that it does not fire on the innocent variant.  Snippets are
written to a temp tree and audited with the real engine; nothing is mocked.
"""

from __future__ import annotations

import textwrap

from repro.audit.engine import run_audit


def audit_snippet(tmp_path, source: str, name: str = "mod.py", strict: bool = False):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_audit(tmp_path, strict=strict)


def new_rules(result):
    return sorted({finding.rule for finding in result.findings if finding.status == "new"})


# -- CT101: secret-dependent control flow ---------------------------------------


def test_ct101_branch_on_sampled_exponent(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            if k > 5:
                return 1
            return 0
        """,
    )
    assert "CT101" in new_rules(result)


def test_ct101_clean_twin_branches_on_public_value(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            if q > 5:
                return k
            return 0
        """,
    )
    assert "CT101" not in new_rules(result)


def test_ct101_while_loop_on_secret(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            while k % 2 == 0:
                k = k // 2
            return k
        """,
    )
    assert "CT101" in new_rules(result)


def test_ct101_vetted_strategy_module_is_exempt(tmp_path):
    source = """
    def ladder(q):
        k = sample_exponent(q)
        if k & 1:
            return 1
        return 0
    """
    flagged = audit_snippet(tmp_path / "a", source, name="other/strategies.py")
    exempt = audit_snippet(tmp_path / "b", source, name="exp/strategies.py")
    assert "CT101" in new_rules(flagged)
    assert "CT101" not in new_rules(exempt)


def test_ct101_is_none_check_is_presence_not_value(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(secret):
            if secret is None:
                return 0
            return 1
        """,
    )
    assert new_rules(result) == []


# -- CT102: secret as container/cache key ---------------------------------------


def test_ct102_secret_subscript_key(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q, table):
            k = sample_exponent(q)
            return table[k]
        """,
    )
    assert "CT102" in new_rules(result)


def test_ct102_clean_twin_public_key(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q, table):
            k = sample_exponent(q)
            return table[q] + k
        """,
    )
    assert "CT102" not in new_rules(result)


def test_ct102_secret_argument_to_memoized_function(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        import functools

        @functools.lru_cache(maxsize=None)
        def table_lookup(x):
            return x * x

        def f(q):
            k = sample_exponent(q)
            return table_lookup(k)
        """,
    )
    assert "CT102" in new_rules(result)


def test_ct102_dict_get_with_secret_key(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q, cache):
            k = sample_exponent(q)
            return cache.get(k)
        """,
    )
    assert "CT102" in new_rules(result)


# -- CT103: non-constant-time equality ------------------------------------------


def test_ct103_digest_of_secret_compared_with_eq(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        import hashlib

        def f(q, guess):
            k = sample_exponent(q)
            tag = hashlib.sha256(bytes(k)).digest()
            return tag == guess
        """,
    )
    assert "CT103" in new_rules(result)


def test_ct103_clean_twin_uses_compare_digest(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        import hashlib
        import hmac

        def f(q, guess):
            k = sample_exponent(q)
            tag = hashlib.sha256(bytes(k)).digest()
            return hmac.compare_digest(tag, guess)
        """,
    )
    assert "CT103" not in new_rules(result)


def test_ct103_small_constant_compare_is_ct101_not_ct103(tmp_path):
    # ``k == 0`` is a control-flow question (branch shape), not a
    # byte-comparison oracle; it must surface as CT101, once.
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            if k == 0:
                return 1
            return 0
        """,
    )
    rules = new_rules(result)
    assert "CT101" in rules
    assert "CT103" not in rules


def test_ct103_key_agreement_result_comparison(tmp_path):
    # The shape of the real finding this analyzer was built to catch
    # (serve/client.py: confirmation tag checked with ``!=``).
    result = audit_snippet(
        tmp_path,
        """
        def session(scheme, pair, server_public, payload):
            shared = scheme.key_agreement(pair, server_public)
            tag = confirmation_tag(shared)
            if payload != tag:
                raise ValueError("tags disagree")
        """,
    )
    assert "CT103" in new_rules(result)


# -- CT104: secret reaches logging/formatting/serialization ---------------------


def test_ct104_secret_printed(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            print(k)
        """,
    )
    assert "CT104" in new_rules(result)


def test_ct104_secret_in_fstring(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            return f"exponent is {k}"
        """,
    )
    assert "CT104" in new_rules(result)


def test_ct104_secret_pickled(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        import pickle

        def f(q):
            k = sample_exponent(q)
            return pickle.dumps(k)
        """,
    )
    assert "CT104" in new_rules(result)


def test_ct104_clean_twin_logs_public_metadata(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(q):
            k = sample_exponent(q)
            print("drew an exponent of", k.bit_length(), "bits for modulus", q)
            return k
        """,
    )
    assert "CT104" not in new_rules(result)


# -- sources: annotations and markers -------------------------------------------


def test_secret_dataclass_annotation_taints_attribute_reads(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        from dataclasses import dataclass
        from repro.audit.annotations import Secret

        @dataclass
        class KeyPair:
            private: Secret[int]
            label: str

        def f(kp: KeyPair, guess):
            return bytes(kp.private) == guess
        """,
    )
    assert "CT103" in new_rules(result)


def test_public_sibling_attribute_stays_clean(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        from dataclasses import dataclass
        from repro.audit.annotations import Secret

        @dataclass
        class KeyPair:
            private: Secret[int]
            label: str

        def f(kp: KeyPair, guess):
            return kp.label == guess
        """,
    )
    assert new_rules(result) == []


def test_secret_marker_on_def_taints_call_sites(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def weird_source(q):  # audit: secret
            return q * 3

        def f(q):
            k = weird_source(q)
            if k > 5:
                return 1
            return 0
        """,
    )
    assert "CT101" in new_rules(result)


def test_secret_marker_on_assignment_taints_names(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        def f(blob):
            k = decode_mystery(blob)  # audit: secret
            print(k)
        """,
    )
    assert "CT104" in new_rules(result)


def test_secret_return_annotation_taints_call_sites(tmp_path):
    result = audit_snippet(
        tmp_path,
        """
        from repro.audit.annotations import Secret

        def derive_thing(q) -> Secret[int]:
            return q * 3

        def f(q):
            k = derive_thing(q)
            if k > 5:
                return 1
            return 0
        """,
    )
    assert "CT101" in new_rules(result)


def test_optimistic_call_boundary_does_not_propagate(tmp_path):
    # exponentiate(g, k) with secret k returns a *public* element — the
    # optimistic boundary is what keeps the group tower usable.
    result = audit_snippet(
        tmp_path,
        """
        def f(group, g, q):
            k = sample_exponent(q)
            element = exponentiate(g, k)
            if element == group.one():
                return None
            return element
        """,
    )
    assert new_rules(result) == []
