"""Tests for XML name handling and QName semantics."""

import pytest

from repro.xmlcore.names import (
    XLINK_NAMESPACE,
    XML_NAMESPACE,
    QName,
    is_valid_name,
    is_valid_ncname,
    qname,
    split_qname,
)


class TestNameValidity:
    def test_simple_ascii_name_is_valid(self):
        assert is_valid_name("painting")

    def test_name_may_contain_digits_after_first_char(self):
        assert is_valid_name("h1")

    def test_name_may_not_start_with_digit(self):
        assert not is_valid_name("1h")

    def test_name_may_start_with_underscore(self):
        assert is_valid_name("_private")

    def test_name_may_contain_hyphen_and_dot(self):
        assert is_valid_name("xml-stylesheet")
        assert is_valid_name("a.b")

    def test_name_may_not_start_with_hyphen(self):
        assert not is_valid_name("-bad")

    def test_empty_string_is_not_a_name(self):
        assert not is_valid_name("")

    def test_whitespace_is_not_allowed(self):
        assert not is_valid_name("two words")

    def test_non_ascii_letters_are_allowed(self):
        assert is_valid_name("museo-sevillaño")

    def test_colon_allowed_in_name_but_not_ncname(self):
        assert is_valid_name("xlink:href")
        assert not is_valid_ncname("xlink:href")


class TestSplitQName:
    def test_unprefixed_name(self):
        assert split_qname("painting") == (None, "painting")

    def test_prefixed_name(self):
        assert split_qname("xlink:href") == ("xlink", "href")

    def test_double_colon_rejected(self):
        with pytest.raises(ValueError):
            split_qname("a:b:c")

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            split_qname(":local")

    def test_empty_local_rejected(self):
        with pytest.raises(ValueError):
            split_qname("prefix:")


class TestQName:
    def test_equality_is_by_value(self):
        assert QName(XLINK_NAMESPACE, "href") == QName(XLINK_NAMESPACE, "href")

    def test_hashable_for_dict_keys(self):
        d = {QName(None, "id"): "guitar"}
        assert d[QName(None, "id")] == "guitar"

    def test_clark_notation_with_namespace(self):
        assert QName(XML_NAMESPACE, "id").clark() == "{%s}id" % XML_NAMESPACE

    def test_clark_notation_without_namespace(self):
        assert QName(None, "title").clark() == "title"

    def test_clark_round_trip(self):
        original = QName(XLINK_NAMESPACE, "arcrole")
        assert QName.from_clark(original.clark()) == original

    def test_from_clark_rejects_empty_uri(self):
        with pytest.raises(ValueError):
            QName.from_clark("{}local")

    def test_invalid_local_part_rejected(self):
        with pytest.raises(ValueError):
            QName(None, "not valid")

    def test_empty_namespace_string_rejected(self):
        with pytest.raises(ValueError):
            QName("", "local")

    def test_qname_helper_accepts_clark(self):
        assert qname("{%s}href" % XLINK_NAMESPACE) == QName(XLINK_NAMESPACE, "href")

    def test_qname_helper_accepts_local_plus_namespace(self):
        assert qname("href", XLINK_NAMESPACE) == QName(XLINK_NAMESPACE, "href")

    def test_qname_helper_rejects_an_invalid_name_on_every_call(self):
        # The local-name memo must not turn a rejected name into a hit.
        for _ in range(3):
            with pytest.raises(ValueError):
                qname("bad name")

    def test_qname_helper_shares_one_frozen_local_name(self):
        assert qname("painting") is qname("painting")
        assert qname("painting") == QName(None, "painting")
