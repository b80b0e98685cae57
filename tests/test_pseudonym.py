"""Pair-wise pseudonym derivation and fresh transient pseudonyms."""

from __future__ import annotations

import base64
import hashlib
import hmac

import pytest

from fedbridge.errors import InvariantViolation
from fedbridge.messages import EntityId
from fedbridge.pseudonym import derive_persistent, fresh_transient

SP1 = EntityId("https://sp1.example.test")
SP2 = EntityId("https://sp2.example.test")
SECRET = b"\x11" * 32
OTHER_SECRET = b"\x22" * 32


class TestDerivePersistent:
    def test_deterministic(self):
        assert derive_persistent("alice", SP1, SECRET) == derive_persistent("alice", SP1, SECRET)

    def test_matches_keyed_hash_reference(self):
        # Independent oracle: recompute the derivation from its definition.
        expected = base64.urlsafe_b64encode(
            hmac.new(SECRET, b"alice\x00" + SP1.value.encode(), hashlib.sha256).digest()
        ).decode().rstrip("=")
        assert derive_persistent("alice", SP1, SECRET) == expected

    def test_distinct_across_providers(self):
        subjects = [f"subject-{i}" for i in range(500)]
        seen_sp1 = {derive_persistent(s, SP1, SECRET) for s in subjects}
        seen_sp2 = {derive_persistent(s, SP2, SECRET) for s in subjects}
        assert len(seen_sp1) == len(subjects)
        assert len(seen_sp2) == len(subjects)
        assert seen_sp1.isdisjoint(seen_sp2)

    def test_distinct_across_secrets(self):
        subjects = [f"subject-{i}" for i in range(200)]
        with_k = {derive_persistent(s, SP1, SECRET) for s in subjects}
        with_k2 = {derive_persistent(s, SP1, OTHER_SECRET) for s in subjects}
        assert with_k.isdisjoint(with_k2)

    def test_pseudonym_does_not_leak_inputs(self):
        pseudonym = derive_persistent("alice", SP1, SECRET)
        assert "alice" not in pseudonym
        assert "sp1" not in pseudonym

    def test_entropy_rendered_as_text(self):
        pseudonym = derive_persistent("alice", SP1, SECRET)
        # 256-bit digest in base64: well above the 128-bit floor.
        assert len(pseudonym) == 43

    def test_empty_subject_rejected(self):
        with pytest.raises(InvariantViolation):
            derive_persistent("", SP1, SECRET)


class TestFreshTransient:
    def test_issuances_never_collide(self):
        assert len({fresh_transient() for _ in range(10_000)}) == 10_000
