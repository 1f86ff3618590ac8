"""Tests for repro.crypto.hashing."""

import hashlib

import pytest

from repro.crypto.hashing import digest, digest_hex


class TestDigest:
    def test_digest_is_32_bytes(self):
        assert len(digest("hello")) == 32

    def test_digest_deterministic(self):
        assert digest("a", 1, None) == digest("a", 1, None)

    def test_digest_differs_for_different_inputs(self):
        assert digest("a") != digest("b")

    def test_digest_distinguishes_types(self):
        # "1" (string) and 1 (int) must not collide.
        assert digest("1") != digest(1)

    def test_digest_distinguishes_structure(self):
        # ("ab",) vs ("a", "b") must not collide thanks to length prefixes.
        assert digest(("ab",)) != digest(("a", "b"))

    def test_digest_handles_nested_sequences(self):
        assert len(digest((1, ("a", b"x"), [2, 3]))) == 32

    def test_digest_handles_bool(self):
        assert digest(True) != digest(False)
        assert digest(True) != digest(1)

    def test_digest_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            digest(object())

    def test_digest_hex_matches_digest(self):
        assert digest_hex("x") == digest("x").hex()


    def test_digest_hex_is_64_lowercase_hex_chars(self):
        value = digest_hex("block", 7)
        assert len(value) == 64
        assert value == value.lower()
        int(value, 16)


class TestCanonicalEncoding:
    """Block ids and trace digests depend on this encoding staying fixed."""

    def test_no_values_hash_to_sha256_of_nothing(self):
        assert digest() == hashlib.sha256(b"").digest()

    def test_known_answer_for_a_string(self):
        assert digest("abc") == hashlib.sha256(b"s\x00\x00\x00\x03abc").digest()

    def test_known_answer_for_an_int_and_none(self):
        assert digest(-12, None) == hashlib.sha256(b"i\x00\x00\x00\x03-12" + b"n").digest()

    def test_argument_boundaries_matter(self):
        assert digest("a", "b") != digest("ab")

    def test_arguments_differ_from_one_tuple_of_them(self):
        assert digest("a", "b") != digest(("a", "b"))

    def test_lists_and_tuples_encode_alike(self):
        assert digest([1, "x", [b"y"]]) == digest((1, "x", (b"y",)))

    def test_bytes_and_str_differ(self):
        assert digest(b"abc") != digest("abc")

    def test_none_and_empty_sequence_differ(self):
        assert digest(None) != digest(())

    def test_sign_of_integers_matters(self):
        assert digest(-5) != digest(5)
