"""Identifier grammar, document invariants, canonical bytes, commitments."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AuthorRef,
    InstanceIdentifier,
    add_attribute,
    attribute_digest,
    canonical_bytes,
    parse_identifier,
)
from instanceid.canonical import b64u, b64u_decode, canonical_json_bytes, canonical_json_line
from instanceid.errors import (
    DuplicateAttributeName,
    InvalidDocument,
    MalformedIdentifier,
    MalformedRecord,
)
from instanceid import identity
from instanceid.identity import (
    IdDocument,
    Link,
    digest_form_bytes,
    doc_from_jsonable,
    doc_to_jsonable,
    fresh_salt,
)

from helpers import random_attribute, random_document, random_identifier

TOKEN_RE = r"[a-z0-9][a-z0-9._-]{0,30}"


def author():
    return AuthorRef("acme", "k1")


# -- identifier grammar -------------------------------------------------------


def test_parse_examples():
    ident = parse_identifier("gpt4-0409:inst-00a1")
    assert ident.system_id == "gpt4-0409"
    assert ident.instance_id == "inst-00a1"
    assert parse_identifier("a:b") == InstanceIdentifier("a", "b")


@pytest.mark.parametrize(
    "bad",
    [
        "no-separator",
        ":missing-system",
        "missing-instance:",
        "UPPER:case",
        "spa ce:x",
        "-lead:x",
        "a:" + "x" * 129,
        "a:b:c",  # second token would contain ':'
        "",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(MalformedIdentifier):
        parse_identifier(bad)


def test_parse_of_repeated_text_returns_equal_identifiers():
    first = parse_identifier("sys-a:0001")
    for _ in range(3):
        assert parse_identifier("sys-a:0001") == first == InstanceIdentifier("sys-a", "0001")
    memo = identity._split_identifier.cache_info()
    assert memo.maxsize == 1 << 14 and memo.currsize <= memo.maxsize


@pytest.mark.parametrize(
    "bad",
    [["sys-a", "0001"], "a:" + "x" * 129, "no-separator"],
    ids=["a-list", "token-over-128-characters", "no-separator"],
)
def test_parse_rejects_on_every_call(bad):
    for _ in range(3):
        with pytest.raises(MalformedIdentifier):
            parse_identifier(bad)


def test_format_examples():
    assert str(InstanceIdentifier("a", "b")) == "a:b"
    assert (
        str(InstanceIdentifier("gpt4-0409", "inst-00a1"))
        == "gpt4-0409:inst-00a1"
    )


def test_system_sentinel_round_trips():
    ident = parse_identifier("gpt4:_system")
    assert ident.is_system_node
    assert str(ident) == "gpt4:_system"


@given(
    st.from_regex(TOKEN_RE, fullmatch=True),
    st.from_regex(TOKEN_RE, fullmatch=True),
)
@settings(max_examples=300)
def test_round_trip_identifier(system_id, instance_id):
    ident = InstanceIdentifier(system_id, instance_id)
    assert parse_identifier(str(ident)) == ident
    text = f"{system_id}:{instance_id}"
    assert str(parse_identifier(text)) == text


def test_round_trip_random_generator():
    rng = random.Random(42)
    for _ in range(1000):
        ident = random_identifier(rng)
        assert parse_identifier(str(ident)) == ident


# -- documents ----------------------------------------------------------------


def test_new_document_is_empty():
    doc = IdDocument(parse_identifier("a:b"), 0, author())
    assert doc.attributes == ()
    assert doc.links == ()


def test_attribute_round_trip():
    doc = IdDocument(parse_identifier("a:b"), 0, author())
    attr = Attribute.linked(
        "system-card",
        "https://example.test/card",
        AttributeCategory.PROPERTY,
        AttributeSpecificity.SYSTEM,
    )
    doc = add_attribute(doc, attr)
    (stored,) = [a for a in doc.attributes if a.name == "system-card"]
    assert stored.link == attr.link
    assert stored.category is AttributeCategory.PROPERTY
    assert stored.specificity is AttributeSpecificity.SYSTEM
    assert stored.salt is not None and len(stored.salt) == 16


def test_duplicate_attribute_name_rejected():
    doc = IdDocument(parse_identifier("a:b"), 0, author())
    attr = random_attribute(random.Random(0), name="dup")
    doc = add_attribute(doc, attr)
    with pytest.raises(DuplicateAttributeName):
        add_attribute(doc, random_attribute(random.Random(1), name="dup"))


def test_incident_db_link_attribute_in_canonical_bytes():
    doc = IdDocument(parse_identifier("a:b"), 0, author())
    doc = add_attribute(
        doc,
        Attribute.linked(
            "incident-db",
            "registry://acme/incidents?scope=system&system=a",
            AttributeCategory.BEHAVIOUR,
            AttributeSpecificity.SYSTEM,
        ),
    )
    assert b"incident-db" in canonical_bytes(doc)


def test_cert_attribute_name_allows_colon():
    attr = Attribute.inline_bytes(
        "cert:no-prompt-injection",
        b"ok",
        AttributeCategory.PROPERTY,
        AttributeSpecificity.INSTANCE,
    )
    assert attr.name == "cert:no-prompt-injection"


def test_self_link_rejected():
    doc = IdDocument(parse_identifier("a:b"), 0, author())
    with pytest.raises(InvalidDocument):
        replace(doc, links=(Link("ancestor", parse_identifier("a:b")),))


# -- canonical bytes ------------------------------------------------------------


def test_canonical_determinism_same_fields():
    rng1, rng2 = random.Random(7), random.Random(7)
    doc1 = random_document(rng1, author(), n_attrs=4, n_links=2)
    doc2 = random_document(rng2, author(), n_attrs=4, n_links=2)
    assert canonical_bytes(doc1) == canonical_bytes(doc2)
    assert digest_form_bytes(doc1) == digest_form_bytes(doc2)


def _shuffle_keys(value, rng):
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _shuffle_keys(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [_shuffle_keys(v, rng) for v in value]
    return value


def test_map_insertion_order_does_not_affect_bytes():
    # derived check: permute dict insertion order, canonical bytes must agree
    rng = random.Random(3)
    doc = random_document(rng, author(), n_attrs=5, n_links=1)
    body = doc_to_jsonable(doc)
    reference = canonical_json_bytes(body)
    for seed in range(10):
        shuffled = _shuffle_keys(body, random.Random(seed))
        assert canonical_json_bytes(shuffled) == reference
        assert canonical_bytes(doc_from_jsonable(shuffled)) == reference


def test_one_byte_difference_changes_bytes():
    rng = random.Random(9)
    doc = random_document(rng, author(), n_attrs=1)
    attr = doc.attributes[0]
    if attr.inline is not None:
        data = bytearray(attr.inline.data)
        data[0] ^= 0x01
        other = Attribute.inline_bytes(
            attr.name, bytes(data), attr.category, attr.specificity,
            media_type=attr.inline.media_type, salt=attr.salt,
        )
    else:
        other = Attribute.linked(
            attr.name, attr.link + "x", attr.category, attr.specificity, salt=attr.salt
        )
    changed = IdDocument(
        identifier=doc.identifier,
        created_at=doc.created_at,
        author=doc.author,
        attributes=(other,),
        links=doc.links,
    )
    assert canonical_bytes(changed) != canonical_bytes(doc)


def test_json_round_trip():
    rng = random.Random(11)
    doc = random_document(rng, author(), n_attrs=3, n_links=2)
    assert doc_from_jsonable(doc_to_jsonable(doc)) == doc


# -- commitments ------------------------------------------------------------------


def test_attribute_digest_stable_and_salt_sensitive():
    rng = random.Random(21)
    attr = random_attribute(rng, name="probe")
    assert attribute_digest(attr) == attribute_digest(attr)
    resalted = Attribute(
        attr.name, attr.category, attr.specificity, attr.inline, attr.link,
        bytes(16),
    )
    assert attribute_digest(resalted) != attribute_digest(attr)


def test_attribute_digest_payload_sensitive():
    salt = bytes(range(16))
    a = Attribute.inline_bytes(
        "p", b"\x00\x01", AttributeCategory.CONTEXT, AttributeSpecificity.INSTANCE, salt=salt
    )
    b = Attribute.inline_bytes(
        "p", b"\x00\x00", AttributeCategory.CONTEXT, AttributeSpecificity.INSTANCE, salt=salt
    )
    assert attribute_digest(a) != attribute_digest(b)


def test_digest_binding_100k_trials():
    # spec invariant: no (salt, attribute) collision over 1e5 random trials
    rng = random.Random(1234)
    encodings = []
    for index in range(100):
        attr = random_attribute(rng, name=f"bind-{index}")
        encodings.append(canonical_json_bytes(attr.payload_jsonable()))
    import hashlib

    seen = {}
    for trial in range(100_000):
        salt = rng.getrandbits(128).to_bytes(16, "big")
        enc = encodings[trial % len(encodings)]
        digest = hashlib.sha256(salt + enc).digest()
        key = digest
        if key in seen:
            assert seen[key] == (salt, enc), "digest collision on distinct input"
        seen[key] = (salt, enc)
    assert len(seen) == 100_000


# -- validator ----------------------------------------------------------------------


def test_validator_accepts_valid_documents():
    rng = random.Random(31)
    for _ in range(20):
        doc = random_document(rng, author(), n_attrs=3, n_links=1)
        rebuilt = IdDocument(doc.identifier, doc.created_at, doc.author, doc.attributes, doc.links)
        assert rebuilt == doc


def test_validator_rejects_each_violation():
    rng = random.Random(32)
    base = random_document(rng, author(), n_attrs=2)
    a0, a1 = base.attributes

    with pytest.raises(InvalidDocument):  # duplicate names
        IdDocument(base.identifier, base.created_at, base.author,
                   (a0, Attribute(a0.name, a1.category, a1.specificity,
                                  a1.inline, a1.link, a1.salt)), base.links)

    with pytest.raises(InvalidDocument):  # duplicate salts
        IdDocument(base.identifier, base.created_at, base.author,
                   (a0, Attribute(a1.name, a1.category, a1.specificity,
                                  a1.inline, a1.link, a0.salt)), base.links)

    with pytest.raises(InvalidDocument):  # missing salt
        IdDocument(base.identifier, base.created_at, base.author,
                   (Attribute(a0.name, a0.category, a0.specificity,
                              a0.inline, a0.link, None),), base.links)

    with pytest.raises(InvalidDocument):  # a link to the document itself
        IdDocument(base.identifier, base.created_at, base.author, base.attributes,
                   (Link("ancestor", base.identifier),))


def test_attribute_requires_exactly_one_payload():
    from instanceid.identity import InlinePayload

    with pytest.raises(InvalidDocument):
        Attribute("x", AttributeCategory.CONTEXT, AttributeSpecificity.INSTANCE)
    with pytest.raises(InvalidDocument):
        Attribute(
            "x",
            AttributeCategory.CONTEXT,
            AttributeSpecificity.INSTANCE,
            inline=InlinePayload(b"d"),
            link="https://a",
        )


def test_specificity_total_order():
    order = [
        AttributeSpecificity.INSTANCE,
        AttributeSpecificity.INSTANCE_CLASS,
        AttributeSpecificity.USER,
        AttributeSpecificity.PARTY_CLASS,
        AttributeSpecificity.SYSTEM,
        AttributeSpecificity.SYSTEMS,
    ]
    assert list(AttributeSpecificity) == order


# -- canonical helpers -----------------------------------------------------------------


def test_b64u_no_padding_round_trip():
    data = bytes(range(17))
    text = b64u(data)
    assert "=" not in text
    assert b64u_decode(text) == data
    with pytest.raises(MalformedRecord):
        b64u_decode("has=padding")


def test_canonical_rejects_floats():
    with pytest.raises(MalformedRecord):
        canonical_json_bytes({"x": 1.5})


@pytest.mark.parametrize(
    "value",
    [{"x": [1, 1.5]}, {1: "x"}, {"caf\u00e9": 1}, ("a", 1), [b"bytes"], {"x": {"a"}}],
    ids=["float-in-a-list-in-a-dict", "int-key", "non-ascii-key", "tuple", "bytes", "set"],
)
def test_canonical_rejects_each_value_json_cannot_spell_canonically(value):
    with pytest.raises(MalformedRecord):
        canonical_json_bytes(value)


class _Int(int):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize(
    "value, expected",
    [
        ({"on": True, "off": [False, None]}, b'{"off":[false,null],"on":true}'),
        ({"n": _Int(7), "m": [_Int(-3)]}, b'{"m":[-3],"n":7}'),
        ({_Str("key"): _Str("text"), "list": [_Str("x")]}, b'{"key":"text","list":["x"]}'),
    ],
    ids=["bool", "int-subclass", "str-subclass"],
)
def test_canonical_bytes_of_bools_and_subclasses(value, expected):
    assert canonical_json_bytes(value) == expected


# every character but the surrogates, which UTF-8 cannot encode; control
# characters and U+2028/U+2029 are escaped or written as they are
_TEXT = st.text(st.characters(blacklist_categories=["Cs"])) | st.sampled_from(
    ["\u2028", "\u2029", "\x00\x1f\x7f\"\\", "caf\u00e9 \U0001f600"])
_KEYS = st.text(st.characters(max_codepoint=127), max_size=6)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200).map(lambda n: -n)
    | st.integers(2**64, 2**200) | st.builds(_Int, st.integers()) | _TEXT | st.builds(_Str, _TEXT)
)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.builds(_Str, _KEYS), inner, max_size=4),
    max_leaves=16,
)
# one value each of the kinds canonical bytes cannot hold, at any depth below
_REFUSED = st.recursive(
    st.floats() | st.tuples(_LEAVES) | st.sets(st.integers(), max_size=2) | st.binary()
    | st.dictionaries(st.integers() | st.none(), _LEAVES, min_size=1, max_size=2)
    | st.dictionaries(st.text(min_size=1).filter(lambda key: not key.isascii()), _LEAVES,
                      min_size=1, max_size=2),
    lambda inner: st.builds(lambda items, item: items + [item], st.lists(_JSON_VALUES, max_size=2),
                            inner)
    | st.builds(lambda items, key, item: {**items, key: item},
                st.dictionaries(_KEYS, _JSON_VALUES, max_size=2), _KEYS, inner),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_canonical_json_bytes_are_what_json_dumps_writes(value):
    expected = json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    assert canonical_json_bytes(value) == expected
    assert canonical_json_line(value) == expected + b"\n"


@settings(max_examples=200, deadline=None)
@given(value=_REFUSED)
def test_canonical_json_bytes_refuse_every_value_json_cannot_spell_canonically(value):
    with pytest.raises(MalformedRecord):
        canonical_json_bytes(value)


def test_canonical_json_bytes_refuse_a_cyclic_value():
    value = {"a": []}
    value["a"].append(value)
    with pytest.raises(RecursionError):
        canonical_json_bytes(value)


@given(seed=st.integers(0, 2**64))
def test_a_fresh_salt_draws_the_bytes_of_one_getrandbits_8_each(seed):
    rng = random.Random(seed)
    expected = bytes(rng.getrandbits(8) for _ in range(16))
    assert fresh_salt(random.Random(seed)) == expected
