"""Design-flow artifact caching.

Every evaluation run needs the verified case-study supervisor before any
scenario can execute.  The identified controller models and their gain
sets are committed (``artifacts/design/``, loaded by
:func:`repro.experiments.figures.identified_systems` in every process);
the supervisor is cached here, in the content-addressed
:class:`~repro.exec.cache.ResultCache`, so that

* worker processes load it from disk instead of re-synthesizing it
  (``spawn`` workers share nothing with the parent), and
* repeated CLI / benchmark invocations skip the synthesis entirely.

Alongside the pickled supervisor, a **policy bundle** in the
:mod:`repro.core.persistence` on-disk format (automaton JSON + LQG gain
``.npz``) is written and re-verified on every load —
:meth:`~repro.core.persistence.PolicyBundle.verify` re-runs the formal
nonblocking/controllability checks, so a cache hit still crosses the
paper's trust-but-verify gate before the supervisor is deployed.  A
bundle that fails to load or verify invalidates the whole entry and
forces a rebuild.
"""

from __future__ import annotations

import hashlib
import json

from repro.automata.verification import VerificationReport, verify_supervisor
from repro.core.persistence import BundleError, load_bundle, save_bundle
from repro.core.synthesis_flow import VerifiedSupervisor
from repro.exec.cache import ResultCache
from repro.exec.job import canonical_encode
from repro.experiments.figures import (
    IdentifiedSystems,
    case_study_supervisor,
    identified_systems,
    prime_design_caches,
)
from repro.managers.bundle import bundle_from_design

__all__ = [
    "DESIGN_SCHEMA",
    "VERIFICATION_FILE",
    "design_digest",
    "ensure_design_artifacts",
    "prime_process",
]

# Bump when the synthesis recipe or the cached payload changes.
DESIGN_SCHEMA = "design-artifacts/3"

# Serialized VerificationReport written beside each bundle: the formal
# certificate travels with the artifact it certifies.
VERIFICATION_FILE = "verification.json"


def design_digest(salt: str) -> str:
    """Content address of the canonical design-flow artifact set."""
    payload = canonical_encode({"schema": DESIGN_SCHEMA, "salt": salt})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _bundle_ok(cache: ResultCache, digest: str) -> bool:
    """Load and formally re-verify the persistence bundle of an entry.

    Beyond the trust-but-verify re-check, the persisted
    ``verification.json`` certificate must equal the freshly recomputed
    :class:`VerificationReport` — a bundle whose stored certificate no
    longer matches what verification derives (e.g. after a model edit
    that bypassed the design flow) invalidates the entry.
    """
    try:
        directory = cache.bundle_dir(digest)
        bundle = load_bundle(directory)
        if bundle.plant is None:
            return bundle.verify()
        report = verify_supervisor(bundle.plant, bundle.supervisor)
        if not report.verified:
            return False
        payload = json.loads(
            (directory / VERIFICATION_FILE).read_text(encoding="utf-8")
        )
        return VerificationReport.from_dict(payload) == report
    except (BundleError, OSError, ValueError, KeyError, TypeError):
        return False


def ensure_design_artifacts(
    cache: ResultCache,
) -> tuple[IdentifiedSystems, VerifiedSupervisor]:
    """Load the verified supervisor from ``cache``, building on first use.

    Returns the committed identified systems (big/little/full,
    :func:`~repro.experiments.figures.identified_systems`) and the
    verified supervisor, the cached payload.  The supervisor is
    bit-identical whether freshly derived or reloaded: pickling
    preserves every float64 exactly.
    """
    digest = design_digest(cache.salt)
    hit, verified = cache.get(digest)
    if hit:
        if _bundle_ok(cache, digest):
            return identified_systems(), verified
        cache.invalidate(digest, reason="artifact-verify")

    systems = identified_systems()
    verified = case_study_supervisor()
    cache.put(digest, verified)
    bundle_dir = cache.bundle_dir(digest)
    save_bundle(
        bundle_from_design(
            verified, {"big": systems.big, "little": systems.little}
        ),
        bundle_dir,
    )
    (bundle_dir / VERIFICATION_FILE).write_text(
        json.dumps(verified.verification.to_dict(), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return systems, verified


def prime_process(cache: ResultCache) -> None:
    """Load (or build) the supervisor and install it as this process's
    design cache, unless it holds one — the engine worker initializer."""
    _, verified = ensure_design_artifacts(cache)
    prime_design_caches(verified)
