"""Domain names: parsing, normalization, hierarchy, and IDN labels.

Names are stored as tuples of lowercase labels in wire order (TLD last
in presentation, but we keep presentation order and expose helpers).
``mil.ru`` and its Cyrillic IDN twin from the paper's §5.2 both flow
through here; IDN labels are carried in their ACE (``xn--``) form.
"""

from __future__ import annotations

from typing import Optional, Tuple

MAX_NAME_OCTETS = 253
MAX_LABEL_OCTETS = 63


def _encode_label(label: str) -> str:
    """Lowercase a label, converting non-ASCII labels to ACE (xn--) form."""
    label = label.strip().lower()
    if not label:
        raise ValueError("empty label")
    if label.isascii():
        return label
    try:
        ace = label.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise ValueError(f"cannot IDNA-encode label {label!r}") from exc
    return ace


class DomainName:
    """An absolute DNS name (the trailing root dot is implicit).

    >>> DomainName("WWW.Example.COM").labels
    ('www', 'example', 'com')
    >>> DomainName("минобороны.рф").to_text().startswith("xn--")
    True
    """

    __slots__ = ("labels",)

    def __new__(cls, name):
        # Immutable, so an existing name is returned as is, not copied.
        if isinstance(name, DomainName):
            return name
        if isinstance(name, (tuple, list)):
            labels: Tuple[str, ...] = tuple(_encode_label(l) for l in name)
        elif isinstance(name, str):
            text = name.strip().rstrip(".")
            if not text:
                labels = ()
            else:
                labels = tuple(_encode_label(l) for l in text.split("."))
        else:
            raise TypeError(f"cannot build DomainName from {type(name).__name__}")
        total = sum(len(l) + 1 for l in labels)
        if total > MAX_NAME_OCTETS + 1:
            raise ValueError(f"name too long ({total} octets): {name!r}")
        for label in labels:
            if len(label) > MAX_LABEL_OCTETS:
                raise ValueError(f"label too long: {label!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DomainName is immutable")

    # -- hierarchy ---------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return not self.labels

    @property
    def tld(self) -> Optional[str]:
        return self.labels[-1] if self.labels else None

    @property
    def parent(self) -> "DomainName":
        if self.is_root:
            raise ValueError("the root has no parent")
        return DomainName(self.labels[1:])

    def registered_domain(self, n_public_labels: int = 1) -> "DomainName":
        """The registrable domain assuming the public suffix spans the
        last ``n_public_labels`` labels (1 for .com/.nl/.ru, 2 for .co.uk).

        The synthetic world uses single-label TLDs, so the default covers
        it; the parameter exists for callers with deeper suffixes.
        """
        need = n_public_labels + 1
        if len(self.labels) < need:
            raise ValueError(f"{self} has no registrable domain below suffix")
        return DomainName(self.labels[-need:])

    # -- rendering / identity ---------------------------------------------

    def to_text(self) -> str:
        return ".".join(self.labels) if self.labels else "."

    @property
    def depth(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"DomainName({self.to_text()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DomainName):
            return self.labels == other.labels
        if isinstance(other, str):
            try:
                return self.labels == DomainName(other).labels
            except ValueError:
                return False
        return NotImplemented

    def __lt__(self, other: "DomainName") -> bool:
        return tuple(reversed(self.labels)) < tuple(reversed(DomainName(other).labels))

    def __hash__(self) -> int:
        return hash(self.labels)

    def __len__(self) -> int:
        return len(self.labels)
