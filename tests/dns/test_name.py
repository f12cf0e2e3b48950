"""Tests for domain names."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import DomainName

LABEL = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,20}[a-z0-9])?", fullmatch=True)
NAMES = st.lists(LABEL, min_size=1, max_size=5).map(tuple)


class TestConstruction:
    def test_lowercases(self):
        assert DomainName("WWW.Example.COM").labels == ("www", "example", "com")

    def test_strips_trailing_dot(self):
        assert DomainName("example.com.") == DomainName("example.com")

    def test_root(self):
        root = DomainName("")
        assert root.labels == ()
        assert root.to_text() == "."

    def test_from_labels(self):
        assert DomainName(("a", "b")).to_text() == "a.b"

    def test_from_domainname(self):
        name = DomainName("example.com")
        assert DomainName(name) == name

    def test_from_domainname_is_not_a_copy(self):
        # Names are immutable, so wrapping one returns it unchanged.
        name = DomainName("example.com")
        assert DomainName(name) is name

    def test_idn_encodes_to_ace(self):
        name = DomainName("минобороны.рф")
        assert all(l.isascii() for l in name.labels)
        assert name.labels[-1].startswith("xn--")

    def test_mil_ru_cyrillic_twin_differs(self):
        assert DomainName("mil.ru") != DomainName("минобороны.рф")

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            DomainName("a..b")

    def test_rejects_long_label(self):
        with pytest.raises(ValueError):
            DomainName("a" * 64 + ".com")

    def test_rejects_long_name(self):
        label = "a" * 60
        with pytest.raises(ValueError):
            DomainName(".".join([label] * 5))

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            DomainName(42)

    def test_immutable(self):
        name = DomainName("example.com")
        with pytest.raises(AttributeError):
            name.labels = ()


class TestHierarchy:
    def test_tld(self):
        assert DomainName("www.example.com").tld == "com"
        assert DomainName("").tld is None


class TestIdentity:
    def test_eq_string(self):
        assert DomainName("Example.COM") == "example.com"

    def test_eq_invalid_string_is_false(self):
        assert DomainName("example.com") != "a" * 300

    def test_hashable(self):
        assert len({DomainName("a.com"), DomainName("A.com")}) == 1

    @given(NAMES)
    def test_roundtrip_text(self, labels):
        name = DomainName(labels)
        assert DomainName(name.to_text()) == name

    def test_ordering_by_reversed_labels(self):
        names = [DomainName("b.com"), DomainName("a.net"), DomainName("a.com")]
        ordered = sorted(names)
        assert [n.to_text() for n in ordered] == ["a.com", "b.com", "a.net"]

    def test_len_and_depth(self):
        name = DomainName("a.b.c")
        assert len(name) == 3
