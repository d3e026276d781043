"""A stateful model of the incident database.

The model is a flat list of every report the registry accepted, read
through the linear oracle ``brute_force_incident_filter``. Hypothesis
interleaves issues, reports (tied, far-future and past-horizon times,
repeated report ids, unknown identifiers, written to the registry or
through a client), clock advances and queries of every scope. Each query
must give the model's answer through ``Registry.query_incidents``,
``Registry.incident_rows`` and an ``InProcessClient``, on the live registry
and on its replay.
"""

import random

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from instanceid import (
    Created,
    IncidentReport,
    IncidentScope,
    InProcessClient,
    Registry,
    RegistryServer,
    RetentionConfig,
    Severity,
    SimClock,
    TimeWindow,
    parse_identifier,
)
from instanceid.canonical import canonical_json_bytes
from instanceid.errors import DuplicateReportId, UnknownIdentifier

from helpers import brute_force_incident_filter, fixed_keypair, report_row

NOW, RETENTION = 1_000_000, 100
# a and ab nest, so the systems prefix "a" merges two systems' lists
SYSTEMS = ("a", "ab", "b")
USERS = (None, "u1", "u2")
REPORTERS = ("service.x", "service.y", "auditor.z", "user.w")
# few distinct times, so reports tie on occurred_at; the clock's advances
# push the early ones past the retention horizon
TIMES = st.sampled_from(range(NOW - 150, NOW + 51, 25)) | st.sampled_from(
    [NOW + 10**12, -(2**63)]  # far future, far past
)
BOUNDS = st.none() | st.sampled_from(range(NOW - 160, NOW + 61, 15))
UNKNOWN = (parse_identifier("a:ghost0"), parse_identifier("c:ghost1"))


def _scopes(identifiers):
    scopes = [IncidentScope.instance(identifier) for identifier in identifiers + list(UNKNOWN)]
    scopes += [IncidentScope.user(user) for user in ("u1", "u2", "nobody")]
    scopes += [IncidentScope.system(system) for system in SYSTEMS + ("c",)]
    scopes += [IncidentScope.systems(prefix) for prefix in ("", "a", "ab", "c")]
    scopes += [IncidentScope.party_class(party)
               for party in ("service", "auditor", "user", "nobody")]
    return scopes


class IncidentDatabase(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SimClock(NOW)
        self.retention = RetentionConfig(incidents=RETENTION)
        self.registry = Registry("acme", clock=self.clock, rng=random.Random(1),
                                 retention=self.retention)
        self.registry.install_key(fixed_keypair())
        self.client = InProcessClient(RegistryServer(self.registry))
        self.identifiers = []
        self.reports = []  # the model: every accepted report, in arrival order

    @rule(system=st.sampled_from(SYSTEMS))
    def issue(self, system):
        self.identifiers.append(self.registry.issue(Created(system, "u")).doc.identifier)

    @precondition(lambda self: self.identifiers)
    @rule(number=st.integers(0, 11), pick=st.integers(0, 7), known=st.booleans(),
          reporter=st.sampled_from(REPORTERS), user=st.sampled_from(USERS), at=TIMES,
          severity=st.sampled_from(Severity), through_client=st.booleans())
    def report(self, number, pick, known, reporter, user, at, severity, through_client):
        pool = self.identifiers if known else UNKNOWN
        identifier = pool[pick % len(pool)]
        report = IncidentReport(f"r{number}", identifier, reporter, severity, f"d{number}",
                                at, user)
        if report.report_id in {held.report_id for held in self.reports}:
            refusal = DuplicateReportId
        elif not known:
            refusal = UnknownIdentifier
        else:
            refusal = None
        log = self.registry.log_lines()
        writer = self.client if through_client else self.registry
        if refusal is None:
            writer.report_incident(report)
            self.reports.append(report)
        else:
            with pytest.raises(refusal):
                writer.report_incident(report)
            assert self.registry.log_lines() == log

    @rule(seconds=st.integers(1, 60))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(start=BOUNDS, end=BOUNDS)
    def query(self, start, end):
        window = TimeWindow(start, end)
        horizon = self.clock.now() - RETENTION
        replayed = Registry.replay(self.registry.log_lines(), "acme", clock=self.clock,
                                   retention=self.retention)
        replayed_client = InProcessClient(RegistryServer(replayed))
        for scope in _scopes(self.identifiers):
            expected = brute_force_incident_filter(self.reports, scope, window, horizon)
            rows = b",".join(canonical_json_bytes(report_row(report))[1:-1]
                             for report in expected)
            for registry, client in ((self.registry, self.client), (replayed, replayed_client)):
                assert registry.query_incidents(scope, window) == expected, (scope, window)
                assert registry.incident_rows(scope, window) == rows, (scope, window)
                assert client.query_incidents(scope, window) == expected, (scope, window)

    @invariant()
    def holds_the_model_and_replays_to_itself(self):
        assert self.registry.incidents == self.reports
        log = self.registry.log_lines()
        replayed = Registry.replay(log, "acme", clock=self.clock, retention=self.retention)
        assert replayed.canonical_state_bytes() == self.registry.canonical_state_bytes()
        assert replayed.log_lines() == log


# No shrinking: a failing run is reported as found, in seconds, not after
# minutes spent shrinking it; derandomize keeps the runs checked the same.
IncidentDatabase.TestCase.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=30, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)
test_incident_database_matches_its_model = IncidentDatabase.TestCase
