"""A stateful model of the registry's keys, shutdown markers, notifications,
documents and lineage.

The model is plain dicts, sets and a list: key records by (author, key id),
documents by identifier text, each lineage node's (parent, edge) pairs,
external nodes, nonces, shutdown markers and the inbox of notifications.
Hypothesis interleaves issues (creations with and without a user ref,
regenerations, reloads, merges and fine-tunes of known and unknown
instances, upstream parents, caller attributes with and without salts that
repeat a name, the registry's own among them, or a salt, and repeated
nonces), own and foreign key registrations, revocations of own, foreign,
unknown and already-revoked keys, shutdown markers of known and unknown
identifiers, notifications about issued, never-issued and unparsable
identifiers, reads of documents across the retention horizon, lineage reads
in both directions and clock advances. A mutation the registry accepts logs
one line, or none when it retries a nonce or installs a key already held,
or is a notification; one it refuses logs nothing. Notifications and reads
go both to the registry and through a ``TcpClient`` of one
``TcpRegistryServer`` serving it. After every step the state holds the
model, and the log replays to the same state and the same log, with an
empty inbox.
"""

import random

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from instanceid import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    Created,
    FineTuned,
    Merged,
    Regenerated,
    Registry,
    Reloaded,
    RegistryServer,
    RetentionConfig,
    SimClock,
    TcpClient,
    TcpRegistryServer,
    parse_identifier,
    verify_id,
)
from instanceid.canonical import load_canonical
from instanceid.errors import (
    AlreadyRevoked,
    DuplicateAttributeName,
    DuplicateConstituents,
    DuplicateKeyId,
    InvalidDocument,
    MalformedRecord,
    NoActiveKey,
    NotFound,
    UnknownConstituent,
    UnknownIdentifier,
    UnknownKey,
    UnknownParent,
)
from instanceid.lineage import composite_system_id
from instanceid.registry import INCIDENT_DB_ATTRIBUTE, USER_REF_ATTRIBUTE

from helpers import fixed_keypair

NOW, RETENTION = 1_000_000, 100
SYSTEMS = ("sys-a", "sys-b")
PICKS = st.integers(0, 15)
NONCES = st.none() | st.sampled_from(("n0", "n1"))
UPSTREAMS = st.sampled_from((None, None, None, "other:up0", "other:up1"))
# caller attributes as (name, salt) pairs; a salt of None is drawn by the registry
CARDS = st.lists(
    st.tuples(
        st.sampled_from(("cert:a", "cert:b", "cert:c", "cert:d", INCIDENT_DB_ATTRIBUTE,
                         USER_REF_ATTRIBUTE)),
        st.sampled_from((None, None, bytes(16), b"\x01" * 16)),
    ),
    max_size=2,
)
OWN_KEYS = ("k1", "k2")
FOREIGN = (("beta", "b1"), ("beta", "b2"), ("gamma", "g1"))
UNKNOWN = (parse_identifier("sys-a:ghost0"), parse_identifier("sys-c:ghost1"))
UNPARSABLE = st.sampled_from((None, None, None, "no-colon", "sys-a:"))
RELATION = {"branch": "ancestor", "constituent": "constituent", "base-system": "base-system"}


class KeysShutdownsAndDocuments(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SimClock(NOW)
        self.retention = RetentionConfig(documents=RETENTION)
        self.registry = Registry("acme", clock=self.clock, rng=random.Random(1),
                                 retention=self.retention)
        self.registry.install_key(fixed_keypair("acme", "k1"))
        # the model
        self.keys = {("acme", "k1"): None}  # (author, key id) -> revoked_at
        self.signing = "k1"
        self.documents = {}  # identifier text -> SignedId
        self.parents = {}  # lineage node text -> {(parent text, edge kind)}
        self.external = set()  # node texts of other deployers' instances
        self.nonces = {}  # nonce -> identifier text
        self.shutdowns = {}  # identifier text -> {"at": ..., "reason": ...}
        self.inbox = []  # the payloads notified, in order
        self.tcp = self.remote = None  # a TCP server of the registry, and its client

    def teardown(self):
        if self.tcp is not None:
            self.remote.close()
            self.tcp.stop()

    def _pool(self):
        """The lineage's nodes and identifiers the registry never saw."""
        return [parse_identifier(text) for text in self.parents] + list(UNKNOWN)

    def _pick(self, pick):
        pool = self._pool()
        return pool[pick % len(pool)]

    def _mutate(self, refusal, mutation, lines=1):
        """Run ``mutation``; it must raise ``refusal`` and log nothing, or,
        with no refusal, append ``lines`` lines to the log. Returns what it
        returns."""
        log = self.registry.log_lines()
        if refusal is not None:
            with pytest.raises(refusal):
                mutation()
            assert self.registry.log_lines() == log
            return None
        result = mutation()
        after = self.registry.log_lines()
        assert after.startswith(log) and after[len(log):].count(b"\n") == lines
        return result

    # -- documents -----------------------------------------------------------

    @initialize()
    def serve_and_create_one_per_system(self):
        self.tcp = TcpRegistryServer(RegistryServer(self.registry)).start()
        self.remote = TcpClient(*self.tcp.address)
        for system in SYSTEMS:
            self._issue(Created(system, "u"), None, None, [])

    @rule(system=st.sampled_from(SYSTEMS), user_ref=st.sampled_from(("u", "")), nonce=NONCES,
          upstream=UPSTREAMS, cards=CARDS)
    def create(self, system, user_ref, nonce, upstream, cards):
        self._issue(Created(system, user_ref), nonce, upstream, cards)

    @rule(pick=PICKS, nonce=NONCES, upstream=UPSTREAMS, cards=CARDS)
    def regenerate(self, pick, nonce, upstream, cards):
        self._issue(Regenerated(self._pick(pick)), nonce, upstream, cards)

    @rule(pick=PICKS, nonce=NONCES, upstream=UPSTREAMS,
          cards=st.sampled_from(([], [], [], [("cert:a", None)])))
    def reload(self, pick, nonce, upstream, cards):
        self._issue(Reloaded(self._pick(pick)), nonce, upstream, cards)

    @rule(picks=st.tuples(PICKS, PICKS), nonce=NONCES, upstream=UPSTREAMS, cards=CARDS)
    def merge(self, picks, nonce, upstream, cards):
        self._issue(Merged(tuple(map(self._pick, picks))), nonce, upstream, cards)

    @rule(system=st.sampled_from(SYSTEMS), nonce=NONCES, upstream=UPSTREAMS, cards=CARDS)
    def fine_tune(self, system, nonce, upstream, cards):
        self._issue(FineTuned(system), nonce, upstream, cards)

    def _refusal(self, event, upstream, names, cards):
        """What the registry raises for this issue, in the order it checks,
        or None. ``names`` are the registry's own attribute names."""
        if self.keys[("acme", self.signing)] is not None:
            return NoActiveKey
        if isinstance(event, Reloaded):
            if upstream is not None or cards:
                return MalformedRecord
            return None if str(event.original) in self.documents else NotFound
        if isinstance(event, Regenerated) and str(event.parent) not in self.parents:
            return UnknownParent
        if isinstance(event, Merged):
            if len(set(event.constituents)) != len(event.constituents):
                return DuplicateConstituents
            if any(str(c) not in self.parents for c in event.constituents):
                return UnknownConstituent
        names, salts = set(names), set()
        for name, salt in cards:
            if name in names:
                return DuplicateAttributeName
            if salt in salts:
                return InvalidDocument
            names.add(name)
            if salt is not None:
                salts.add(salt)
        return None

    def _issue(self, event, nonce, upstream, cards):
        if upstream is not None:
            upstream = parse_identifier(upstream)
        attributes = [
            Attribute.inline_bytes(name, b"card", AttributeCategory.PROPERTY,
                                   AttributeSpecificity.INSTANCE, salt=salt)
            for name, salt in cards
        ]

        def issue():
            return self.registry.issue(event, attributes, nonce=nonce, upstream=upstream)

        if nonce in self.nonces:  # the first document under the nonce, logging nothing
            assert self._mutate(None, issue, lines=0) == self.documents[self.nonces[nonce]]
            return
        own = [INCIDENT_DB_ATTRIBUTE]
        if isinstance(event, Created) and event.user_ref:
            own.append(USER_REF_ATTRIBUTE)
        signed = self._mutate(self._refusal(event, upstream, own, cards), issue)
        if signed is None:
            return
        text = str(signed.doc.identifier)
        if nonce is not None:
            self.nonces[nonce] = text
        if isinstance(event, Reloaded):
            assert signed == self.documents[text]
            return
        assert text not in self.parents
        doc = signed.doc
        assert doc.created_at == self.clock.now()
        assert doc.author.key_id == self.signing
        assert doc.attribute_names() == own + [name for name, _ in cards]
        for attr, (_, salt) in zip(doc.attributes[len(own):], cards):
            assert salt is None or attr.salt == salt
        assert verify_id(signed, self.registry.trust, self.clock.now()).ok
        if isinstance(event, Created):
            system, parents = event.system_id, []
        elif isinstance(event, Regenerated):
            system, parents = event.parent.system_id, [(str(event.parent), "branch")]
        elif isinstance(event, Merged):
            system = composite_system_id(c.system_id for c in event.constituents)
            parents = [(str(c), "constituent") for c in event.constituents]
        else:
            base = f"{event.base_system_id}:_system"
            system, parents = doc.identifier.system_id, [(base, "base-system")]
            assert doc.identifier.is_system_node and system.startswith("ft-")
            self.parents.setdefault(base, set())
        assert doc.identifier.system_id == system
        links = [(RELATION[edge], parent) for parent, edge in parents]
        if upstream is not None:
            links += [("ancestor", str(upstream)), ("upstream-deployer", str(upstream))]
            parents.append((str(upstream), "branch"))
            if str(upstream) not in self.parents:
                self.external.add(str(upstream))
                self.parents[str(upstream)] = set()
        assert [(link.relation, str(link.target)) for link in doc.links] == links
        self.documents[text] = signed
        self.parents[text] = set(parents)

    @rule()
    def get_every_id(self):
        """Each document, past the retention horizon or not, and each
        identifier the registry never saw."""
        for identifier in self._pool():
            signed = self.documents.get(str(identifier))
            if signed is None:
                detail = "unknown"
            elif signed.doc.created_at < self.clock.now() - RETENTION:
                detail = "expired"
            else:
                assert self.registry.get_id(identifier) == signed
                assert self.remote.get_id(identifier) == signed
                continue
            for reader in (self.registry, self.remote):
                with pytest.raises(NotFound) as caught:
                    reader.get_id(identifier)
                assert caught.value.detail == detail

    @rule(direction=st.sampled_from(("ancestors", "descendants")))
    def get_every_lineage(self, direction):
        edges = {(parent, child) for child, parents in self.parents.items()
                 for parent, _ in parents}
        step = {text: set() for text in self.parents}
        for parent, child in edges:
            if direction == "ancestors":
                step[child].add(parent)
            else:
                step[parent].add(child)
        for identifier in self._pool():
            if str(identifier) not in step:
                for reader in (self.registry, self.remote):
                    with pytest.raises(UnknownIdentifier):
                        reader.get_lineage(identifier, direction)
                continue
            related, frontier = set(), [str(identifier)]
            while frontier:
                for text in step[frontier.pop()] - related:
                    related.add(text)
                    frontier.append(text)
            expected = [(parse_identifier(text), text in self.external)
                        for text in sorted(related)]
            assert self.registry.get_lineage(identifier, direction) == expected
            assert self.remote.get_lineage(identifier, direction) == expected

    @rule(seconds=st.sampled_from((1, RETENTION // 2, RETENTION)))
    def advance(self, seconds):
        self.clock.advance(seconds)

    # -- keys -----------------------------------------------------------------

    @rule(key_id=st.sampled_from(OWN_KEYS))
    def install_key(self, key_id):
        held = ("acme", key_id) in self.keys
        keypair = fixed_keypair("acme", key_id)
        self._mutate(None, lambda: self.registry.install_key(keypair), lines=0 if held else 1)
        self.keys.setdefault(("acme", key_id), None)
        self.signing = key_id

    @rule(foreign=st.sampled_from(FOREIGN))
    def register_foreign_key(self, foreign):
        author_id, key_id = foreign
        refusal = DuplicateKeyId if foreign in self.keys else None
        key = fixed_keypair(author_id, key_id).public_key()
        self._mutate(refusal, lambda: self.registry.register_foreign_key(author_id, key))
        if refusal is None:
            self.keys[foreign] = None

    @rule(key=st.sampled_from(FOREIGN + (("acme", "k9"), ("acme", "k2"), ("acme", "k1"))))
    def revoke_key(self, key):
        if key not in self.keys:
            refusal = UnknownKey
        elif self.keys[key] is not None:
            refusal = AlreadyRevoked
        else:
            refusal = None
        self._mutate(refusal, lambda: self.registry.revoke_key(*key))
        if refusal is None:
            self.keys[key] = self.clock.now()

    # -- shutdown markers ---------------------------------------------------------

    @rule(pick=PICKS, reason=st.sampled_from(("retired", "compromised")))
    def mark_shutdown(self, pick, reason):
        identifier = self._pick(pick)
        text = str(identifier)
        refusal = None if text in self.parents else UnknownIdentifier
        self._mutate(refusal, lambda: self.registry.mark_shutdown(identifier, reason))
        if refusal is None:
            self.shutdowns[text] = {"at": self.clock.now(), "reason": reason}
        assert self.registry.is_shut_down(identifier) == (text in self.shutdowns)

    # -- notifications ---------------------------------------------------------------

    @rule(pick=PICKS, unparsable=UNPARSABLE, over_tcp=st.booleans())
    def notify(self, pick, unparsable, over_tcp):
        text = str(self._pick(pick)) if unparsable is None else unparsable
        payload = {"identifier": text, "reason": "malfunction"}
        if text in self.documents:
            refusal = None
        elif over_tcp and unparsable is not None:  # the endpoint parses it first
            refusal = MalformedRecord
        else:
            refusal = UnknownIdentifier
        notify = self.remote.notify if over_tcp else self.registry.notify
        self._mutate(refusal, lambda: notify(payload), lines=0)
        if refusal is None:
            self.inbox.append(payload)

    # -- after every step ----------------------------------------------------------

    @invariant()
    def holds_the_model(self):
        state = load_canonical(self.registry.canonical_state_bytes())
        keys = {(author_id, record["key_id"]): record["revoked_at"]
                for author_id, records in state["trust"]["authors"].items()
                for record in records}
        assert keys == self.keys
        assert set(state["documents"]) == set(self.documents)
        assert state["lineage"] == {
            "edges": sorted([parent, child, edge] for child, parents in self.parents.items()
                            for parent, edge in parents),
            "external": sorted(self.external),
            "nodes": sorted(self.parents),
        }
        assert state["nonces"] == self.nonces
        assert state["shutdowns"] == self.shutdowns
        assert self.remote.list_keys() == state["trust"]
        assert self.registry.inbox == self.inbox

    @invariant()
    def replays_to_itself(self):
        log = self.registry.log_lines()
        replayed = Registry.replay(log, "acme", clock=self.clock, retention=self.retention)
        assert replayed.canonical_state_bytes() == self.registry.canonical_state_bytes()
        assert replayed.log_lines() == log
        assert replayed.inbox == []


# No shrinking: a failing run is reported as found, in seconds, not after
# minutes spent shrinking it; derandomize keeps the runs checked the same.
KeysShutdownsAndDocuments.TestCase.settings = settings(
    derandomize=True, max_examples=50, stateful_step_count=30, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)
test_keys_shutdowns_and_documents_match_their_model = KeysShutdownsAndDocuments.TestCase
