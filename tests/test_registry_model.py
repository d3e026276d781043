"""A stateful model of the registry's keys, shutdown markers and documents.

The model is plain dicts: key records by (author, key id), documents and
their parents by identifier text, nonces and shutdown markers. Hypothesis
interleaves issues (creations, regenerations of known and unknown
instances, reloads, repeated nonces), own and foreign key registrations,
revocations of own, foreign, unknown and already-revoked keys, shutdown
markers of known and unknown identifiers, reads of documents across the
retention horizon, lineage reads in both directions and clock advances.
A mutation the registry accepts logs one line, or none when it retries a
nonce or installs a key already held; one it refuses logs nothing. After
every step the state holds the model, and the log replays to the same
state and the same log.
"""

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from instanceid import (
    Created,
    Regenerated,
    Registry,
    Reloaded,
    RetentionConfig,
    SimClock,
    parse_identifier,
)
from instanceid.canonical import load_canonical
from instanceid.errors import (
    AlreadyRevoked,
    DuplicateKeyId,
    NoActiveKey,
    NotFound,
    UnknownIdentifier,
    UnknownKey,
    UnknownParent,
)

from helpers import fixed_keypair

NOW, RETENTION = 1_000_000, 100
SYSTEMS = ("sys-a", "sys-b")
PICKS = st.integers(0, 15)
NONCES = st.none() | st.sampled_from(("n0", "n1"))
OWN_KEYS = ("k1", "k2")
FOREIGN = (("beta", "b1"), ("beta", "b2"), ("gamma", "g1"))
UNKNOWN = (parse_identifier("sys-a:ghost0"), parse_identifier("sys-c:ghost1"))


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
        self.parents = {}  # identifier text -> parents' identifier texts
        self.nonces = {}  # nonce -> identifier text
        self.shutdowns = {}  # identifier text -> {"at": ..., "reason": ...}

    def _pool(self):
        """The identifiers of the documents and those the registry never saw."""
        return [parse_identifier(text) for text in self.documents] + list(UNKNOWN)

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
    def create_one_per_system(self):
        for system in SYSTEMS:
            self._issue(Created(system, "u"), None, refusal=None)

    @rule(system=st.sampled_from(SYSTEMS), nonce=NONCES)
    def create(self, system, nonce):
        self._issue(Created(system, "u"), nonce, refusal=None)

    @rule(pick=PICKS, nonce=NONCES)
    def regenerate(self, pick, nonce):
        parent = self._pick(pick)
        refusal = None if str(parent) in self.documents else UnknownParent
        self._issue(Regenerated(parent), nonce, refusal)

    @rule(pick=PICKS, nonce=NONCES)
    def reload(self, pick, nonce):
        original = self._pick(pick)
        refusal = None if str(original) in self.documents else NotFound
        self._issue(Reloaded(original), nonce, refusal)

    def _issue(self, event, nonce, refusal):
        if nonce in self.nonces:  # the first document under the nonce, logging nothing
            retried = self._mutate(None, lambda: self.registry.issue(event, nonce=nonce), lines=0)
            assert retried == self.documents[self.nonces[nonce]]
            return
        if self.keys[("acme", self.signing)] is not None:
            refusal = NoActiveKey
        signed = self._mutate(refusal, lambda: self.registry.issue(event, nonce=nonce))
        if signed is None:
            return
        text = str(signed.doc.identifier)
        if isinstance(event, Reloaded):
            assert signed == self.documents[text]
        else:
            assert text not in self.documents
            assert signed.doc.created_at == self.clock.now()
            assert signed.doc.author.key_id == self.signing
            parent = getattr(event, "parent", None)
            assert signed.doc.identifier.system_id == \
                (event.system_id if parent is None else parent.system_id)
            self.documents[text] = signed
            self.parents[text] = set() if parent is None else {str(parent)}
        if nonce is not None:
            self.nonces[nonce] = text

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
                continue
            with pytest.raises(NotFound) as caught:
                self.registry.get_id(identifier)
            assert caught.value.detail == detail

    @rule(direction=st.sampled_from(("ancestors", "descendants")))
    def get_every_lineage(self, direction):
        if direction == "ancestors":
            step = self.parents
        else:
            step = {text: {child for child, parents in self.parents.items() if text in parents}
                    for text in self.parents}
        for identifier in self._pool():
            if str(identifier) not in step:
                with pytest.raises(UnknownIdentifier):
                    self.registry.get_lineage(identifier, direction)
                continue
            related, frontier = set(), [str(identifier)]
            while frontier:
                for text in step[frontier.pop()] - related:
                    related.add(text)
                    frontier.append(text)
            expected = [(parse_identifier(text), False) for text in sorted(related)]
            assert self.registry.get_lineage(identifier, direction) == expected

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

    # -- after every step ----------------------------------------------------------

    @invariant()
    def holds_the_model(self):
        state = load_canonical(self.registry.canonical_state_bytes())
        keys = {(author_id, record["key_id"]): record["revoked_at"]
                for author_id, records in state["trust"]["authors"].items()
                for record in records}
        assert keys == self.keys
        assert set(state["documents"]) == set(self.documents)
        assert state["nonces"] == self.nonces
        assert state["shutdowns"] == self.shutdowns

    @invariant()
    def replays_to_itself(self):
        log = self.registry.log_lines()
        replayed = Registry.replay(log, "acme", clock=self.clock, retention=self.retention)
        assert replayed.canonical_state_bytes() == self.registry.canonical_state_bytes()
        assert replayed.log_lines() == log


KeysShutdownsAndDocuments.TestCase.settings = settings(
    derandomize=True, max_examples=30, stateful_step_count=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_keys_shutdowns_and_documents_match_their_model = KeysShutdownsAndDocuments.TestCase
