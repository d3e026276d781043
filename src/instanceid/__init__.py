"""Verifiable instance-level IDs for AI systems.

The suite covers the full loop: a deployer issues signed ID documents on
instance-lifecycle events, instances present selectively disclosed views
with output-bound manifests, service providers gate access on verification
and policy, incidents accumulate in a queryable registry, and lineage links
let an investigator walk back to the responsible root instance.
"""

from .canonical import HASH_SUITE, SIGNATURE_SUITE, canonical_json_bytes
from .clock import SimClock, SystemClock
from .disclosure import (
    AttributeMatcher,
    DisclosedView,
    DisclosurePolicy,
    PartyClass,
    redact,
    verify_view,
)
from .errors import ProtocolError
from .gatekeeper import (
    Decision,
    GateVerdict,
    IncidentThreshold,
    OnMissing,
    PolicyRule,
    Presented,
    RateLimit,
    RequestContext,
    Requirement,
    evaluate,
    flag_and_notify,
    rate_limiter_admit,
)
from .harness import (
    SCENARIOS,
    SimConfig,
    SimEventTrace,
    run_certification_scenario,
    run_investigation_scenario,
    run_shutdown_scenario,
)
from .identity import (
    Attribute,
    AttributeCategory,
    AttributeSpecificity,
    AuthorRef,
    IdDocument,
    InstanceIdentifier,
    add_attribute,
    attribute_digest,
    canonical_bytes,
    digest_form_bytes,
    parse_identifier,
)
from .incidents import IncidentReport, IncidentScope, Severity, TimeWindow
from .lineage import (
    Created,
    FineTuned,
    LineageStore,
    Merged,
    Regenerated,
    Reloaded,
)
from .registry import Registry, RetentionConfig
from .service import (
    InProcessClient,
    RegistryServer,
    ServiceConfig,
    TcpClient,
    TcpRegistryServer,
)
from .verifiability import (
    KeyPair,
    Manifest,
    PublicKey,
    SignedId,
    TrustStore,
    Verdict,
    VerificationReport,
    create_manifest,
    manifest_hash,
    sign_id,
    verify_id,
    verify_manifest,
)

__version__ = "0.1.0"
