"""Content-addressed publication store with audit-gated admission.

A custodian's artifact shelf: every publication is persisted losslessly
(:func:`repro.io.publication_payload`) under the SHA-256 digest of its
logical content, next to a JSON manifest carrying provenance (algorithm,
parameters, seed) and the audit evidence that justified admission.

Admission is the privacy contract: :meth:`PublicationStore.put` runs the
batched audit layer against the publication's *declared* requirement —
β-likeness, t-closeness, or ℓ-diversity — and **raises**
:class:`CertificationError` when the measured privacy violates it, so
the store only ever serves publications that honor their contract.
Engine runs of every kind are admitted one way,
:meth:`repro.api.AnonymizationRun.publish`, which calls :meth:`put`
with the run's provenance.

Store layout::

    root/
      objects/<sha256>/payload.npz     # lossless publication payload
      objects/<sha256>/manifest.json   # provenance + audit sidecar

Content addressing makes admission idempotent: re-publishing identical
content is a no-op returning the same id, and two stores built from the
same publications agree on every id.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..anonymity.anatomy import BaselinePublication
from ..audit.evaluate import audit_publications
from ..audit.view import publication_view
from ..core.model import BetaLikeness
from ..core.perturb import PerturbationScheme, PerturbedTable
from ..dataset.published import GroupedPublication
from ..io import (
    content_digest,
    publication_from_payload,
    publication_payload,
    read_publication_payload,
    unique_sibling,
    write_publication_payload,
)
from ..query.cube import CountCube, build_count_cube

#: Requirement keys :func:`certify_publication` understands.
REQUIREMENT_KEYS = ("beta", "enhanced", "t", "ordered", "l")

#: Numerical slack for measured-vs-declared comparisons (float round-off
#: in ratios of integer counts).
_TOLERANCE = 1e-9


class CertificationError(ValueError):
    """A publication's measured privacy violates its declared requirement."""


def _check_requirement(requirement: Mapping[str, Any]) -> dict:
    unknown = set(requirement) - set(REQUIREMENT_KEYS)
    if unknown:
        raise ValueError(
            f"unknown requirement keys {sorted(unknown)}; "
            f"accepted: {REQUIREMENT_KEYS}"
        )
    if not any(k in requirement for k in ("beta", "t", "l")):
        raise ValueError(
            "a requirement must declare at least one of beta, t, l"
        )
    return dict(requirement)


def _certify_grouped(
    published, requirement: Mapping[str, Any], *, ordered_emd: bool, cache=None
) -> dict:
    """Audit a group-based publication and compare against the contract.

    The view is built once and serves both the audit and the β check.
    """
    view = publication_view(published, cache=cache)
    report = audit_publications(
        published.source, {"candidate": view}, ordered_emd=ordered_emd
    )["candidate"]
    privacy = report.privacy
    failures = []
    if "beta" in requirement:
        # Per-value model compliance, not a max-gain comparison: the
        # enhanced model caps frequent values below (1 + beta) * p, so
        # measured beta <= declared would wrongly admit publications
        # violating an enhanced contract.
        model = BetaLikeness(
            requirement["beta"], enhanced=requirement.get("enhanced", True)
        )
        bound = model.threshold(view.global_distribution)
        excess = float(
            (view.distributions - bound[None, :]).max()
        )
        if excess > _TOLERANCE:
            failures.append(
                f"a group frequency exceeds the declared {model} bound "
                f"by {excess:.6g} (measured beta {privacy.beta:.6g})"
            )
    if "t" in requirement and privacy.t > requirement["t"] + _TOLERANCE:
        failures.append(
            f"measured t {privacy.t:.6g} exceeds declared "
            f"{requirement['t']:.6g}"
        )
    if "l" in requirement and privacy.l < requirement["l"]:
        failures.append(
            f"measured l {privacy.l} is below declared {requirement['l']}"
        )
    if failures:
        raise CertificationError(
            "publication refused: " + "; ".join(failures)
        )
    return {
        "privacy": dataclasses.asdict(privacy),
        "risk": dataclasses.asdict(report.risk),
    }


def _certify_perturbed(
    published: PerturbedTable, requirement: Mapping[str, Any]
) -> dict:
    """Verify a perturbation scheme against a declared β-likeness bound.

    The perturbed publication has no equivalence classes to audit;
    instead the scheme itself is checked: its posterior caps must not
    exceed the declared model's ``f(p)`` (Theorem 3's contract), its
    transition matrix must be the one its retention probabilities imply,
    and the matrix must be column-stochastic.
    """
    if "t" in requirement or "l" in requirement:
        raise CertificationError(
            "perturbed publications certify only beta-likeness "
            "requirements; t/l contracts have no meaning without "
            "equivalence classes"
        )
    scheme = published.scheme
    # The gate trusts nothing the publication declares about itself: the
    # scheme's domain and priors must be the embedded source table's
    # actual SA distribution (what PerturbationScheme.fit derives), or
    # the cap check below would bound posteriors against fabricated
    # priors.
    true_probs = published.source.sa_distribution()
    true_domain = np.nonzero(true_probs > 0)[0]
    if not np.array_equal(scheme.domain, true_domain):
        raise CertificationError(
            "publication refused: scheme domain does not match the "
            "source table's present SA values"
        )
    expected_probs = true_probs[true_domain] / true_probs[true_domain].sum()
    if not np.allclose(scheme.probs, expected_probs, atol=1e-12, rtol=0.0):
        raise CertificationError(
            "publication refused: scheme priors do not match the source "
            "table's SA distribution"
        )
    model = BetaLikeness(
        requirement["beta"], enhanced=requirement.get("enhanced", True)
    )
    # A cap at the prior grants zero gain, so the effective bound is
    # max(f(p), p) — exactly what PerturbationScheme.fit enforces.
    bound = np.maximum(model.threshold(scheme.probs), scheme.probs)
    slack = float((bound - scheme.caps).min())
    if slack < -_TOLERANCE:
        raise CertificationError(
            f"publication refused: scheme caps exceed the declared "
            f"{model} bound by {-slack:.6g}"
        )
    if np.any(scheme.alphas < -_TOLERANCE) or np.any(
        scheme.alphas > 1.0 + _TOLERANCE
    ):
        raise CertificationError(
            "publication refused: retention probabilities outside [0, 1]"
        )
    expected = PerturbationScheme._transition_matrix(scheme.alphas, scheme.m)
    if not np.allclose(scheme.matrix, expected, atol=1e-12):
        raise CertificationError(
            "publication refused: published transition matrix is "
            "inconsistent with its retention probabilities"
        )
    column_sums = scheme.matrix.sum(axis=0)
    if not np.allclose(column_sums, 1.0, atol=1e-9):
        raise CertificationError(
            "publication refused: transition matrix is not "
            "column-stochastic"
        )
    return {
        "scheme": {
            "m": scheme.m,
            "cap_slack_min": slack,
            "alpha_min": float(scheme.alphas.min()),
            "alpha_max": float(scheme.alphas.max()),
            "c_lm": scheme.c_lm,
        }
    }


def _certify_baseline(
    published: BaselinePublication, requirement: Mapping[str, Any]
) -> dict:
    """The §6.3 Baseline publishes only the overall SA distribution, so
    every group-level posterior equals the prior: β-gain and EMD are 0
    and the diversity is the table's distinct SA count."""
    distinct = int(np.count_nonzero(published.source.sa_counts()))
    if "l" in requirement and distinct < requirement["l"]:
        raise CertificationError(
            f"publication refused: table holds {distinct} distinct SA "
            f"values, below declared l={requirement['l']}"
        )
    return {"privacy": {"beta": 0.0, "t": 0.0, "l": distinct}}


def certify_publication(
    published,
    requirement: Mapping[str, Any],
    *,
    ordered_emd: bool = False,
    cache=None,
) -> dict:
    """Certify that a publication honors its declared requirement.

    Args:
        published: Any of the four answerable publication kinds.
        requirement: The declared privacy contract — keys among
            ``beta`` (+ ``enhanced``), ``t`` (+ ``ordered``), ``l``.
        ordered_emd: Measure closeness with the ordered ground distance.
        cache: Optional :class:`repro.api.ArtifactCache`; certification
            then reuses (and warms) the content-keyed publication view a
            facade audit of the same release already built.

    Returns:
        The JSON-serializable audit evidence to record in the manifest.

    Raises:
        CertificationError: The measured privacy violates the contract.
    """
    requirement = _check_requirement(requirement)
    if "ordered" in requirement:
        ordered_emd = bool(requirement["ordered"])
    if isinstance(published, GroupedPublication):
        return _certify_grouped(
            published, requirement, ordered_emd=ordered_emd, cache=cache
        )
    if isinstance(published, PerturbedTable):
        return _certify_perturbed(published, requirement)
    if isinstance(published, BaselinePublication):
        return _certify_baseline(published, requirement)
    raise TypeError(
        f"cannot certify publication type {type(published).__name__!r}"
    )


# content_digest now lives in repro.io (next to the payload builders it
# hashes) and doubles as the facade ArtifactCache's publication key; the
# re-export above keeps ``repro.service.store.content_digest`` working.


def _json_safe(value):
    """Engine params may carry arbitrary objects; degrade them to str."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    return str(value)


@dataclass(frozen=True)
class PublicationRecord:
    """One admitted publication, as described by its manifest.

    ``name`` and ``parent_id`` carry version lineage: successive
    publications of one logical dataset share a ``name``, and each
    incremental republication records the id of the version it was
    refreshed from — :meth:`PublicationStore.versions` walks the chain.
    """

    pub_id: str
    kind: str
    algorithm: str | None
    params: dict
    seed: int | None
    requirement: dict
    audit: dict
    n_rows: int
    n_groups: int | None
    name: str | None = None
    parent_id: str | None = None

    @classmethod
    def from_manifest(cls, manifest: dict) -> "PublicationRecord":
        return cls(
            pub_id=manifest["id"],
            kind=manifest["kind"],
            algorithm=manifest.get("algorithm"),
            params=manifest.get("params", {}),
            seed=manifest.get("seed"),
            requirement=manifest["requirement"],
            audit=manifest["audit"],
            n_rows=manifest["n_rows"],
            n_groups=manifest.get("n_groups"),
            name=manifest.get("name"),
            parent_id=manifest.get("parent"),
        )


class PublicationStore:
    """Content-addressed, certification-gated publication persistence.

    Args:
        root: Store directory (created on demand).
        cache: Optional default :class:`repro.api.ArtifactCache` used by
            admission audits (``put`` accepts a per-call override).
    """

    def __init__(self, root: str | Path, *, cache=None):
        self.root = Path(root)
        self.cache = cache
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def put(
        self,
        published,
        *,
        requirement: Mapping[str, Any],
        algorithm: str | None = None,
        params: Mapping[str, Any] | None = None,
        seed: int | None = None,
        ordered_emd: bool = False,
        cache=None,
        name: str | None = None,
        parent: "str | PublicationRecord | None" = None,
        cube: bool = True,
    ) -> PublicationRecord:
        """Certify and persist a publication; returns its record.

        Raises :class:`CertificationError` (without writing anything)
        when the publication's measured privacy violates ``requirement``.
        Re-admitting identical content is idempotent on the payload; the
        manifest records the *most recent* certified contract, so
        re-publishing under a different (just-certified) requirement
        refreshes the sidecar rather than returning stale provenance.

        ``cache`` (default: the store's) lets the admission audit reuse
        a facade's content-keyed publication view instead of rebuilding
        it.

        ``name`` registers the publication as a version of a named
        logical dataset and ``parent`` (an admitted id, unique prefix,
        or record) links it to the version it was refreshed from; both
        land in the manifest and surface through :meth:`versions` /
        :meth:`latest`.  A dangling parent is refused up front — lineage
        is only useful if every recorded edge resolves.

        ``cube`` (default True) materializes the publication's
        prefix-sum :class:`~repro.query.cube.CountCube` at admission
        time and persists it inside the payload under ``aux_``-prefixed
        names, which :func:`repro.io.content_digest` excludes — so the
        publication id is identical with or without the cube, and
        :meth:`get` hands the serving layer a cube-equipped object.
        The cube holds only the sub-cube the publication's estimator
        reads; a generalized publication (served by its EC kernel) and
        one whose sub-cube exceeds the cube budget (served by the bitmap
        engine) admit without one.
        """
        if cache is None:
            cache = self.cache
        if isinstance(parent, PublicationRecord):
            parent = parent.pub_id
        if parent is not None:
            parent = self.resolve(parent)
        audit = certify_publication(
            published, requirement, ordered_emd=ordered_emd, cache=cache
        )
        meta, arrays = publication_payload(published)
        # Trust a digest already memoized on the object (a cached
        # certification or a store round-trip computed it from these
        # same bytes) instead of re-hashing every array per admission;
        # `get` re-verifies payloads against their id on read anyway.
        digest = getattr(published, "_content_digest", None)
        if digest is None:
            digest = content_digest(meta, arrays)
            # Stamp the content id on the object so later facade cache
            # lookups (views, answerers) key it without re-hashing.
            published._content_digest = digest
        directory = self._objects / digest
        n_groups = (
            published.n_groups
            if isinstance(published, GroupedPublication)
            else None
        )
        manifest = {
            "format": meta["format"],
            "id": digest,
            "kind": meta["kind"],
            "algorithm": algorithm,
            "params": _json_safe(dict(params or {})),
            "seed": seed,
            "requirement": _json_safe(dict(requirement)),
            "audit": _json_safe(audit),
            "n_rows": published.source.n_rows,
            "n_groups": n_groups,
            "name": name,
            "parent": parent,
        }
        count_cube = None
        if cube:
            if "_count_cube" in published.__dict__:
                count_cube = published._count_cube
            else:
                count_cube = build_count_cube(published)
            # Memoize on the object either way: None records "over
            # budget" so the backend seam never re-attempts the build.
            published._count_cube = count_cube
            if count_cube is not None:
                cube_meta, cube_arrays = count_cube.to_payload()
                meta["aux_cube"] = cube_meta
                arrays.update(cube_arrays)
        directory.mkdir(parents=True, exist_ok=True)
        # Both files land via a unique temp name + rename, so whatever
        # exists is complete: a crash mid-write leaves only a .tmp
        # sibling, concurrent admissions of one publication never move
        # each other's temp files, and a payload that survived an
        # earlier admission can be trusted.
        payload_path = directory / "payload.npz"
        needs_payload = not payload_path.exists()
        if not needs_payload and count_cube is not None:
            # Upgrade path: a payload admitted before cubes existed (or
            # with cube=False) gains its aux arrays on re-admission.
            with np.load(payload_path) as archive:
                needs_payload = not any(
                    n.startswith("aux_") for n in archive.files
                )
        if needs_payload:
            write_publication_payload(meta, arrays, payload_path)
        # Manifest is written last: its presence marks a complete object.
        manifest_path = directory / "manifest.json"
        manifest_tmp = unique_sibling(manifest_path)
        manifest_tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        manifest_tmp.replace(manifest_path)
        return PublicationRecord.from_manifest(manifest)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def ids(self) -> list[str]:
        """All admitted publication ids, sorted."""
        return sorted(
            path.name
            for path in self._objects.iterdir()
            if (path / "manifest.json").exists()
        )

    def resolve(self, pub_id: str) -> str:
        """Resolve a full id or unique prefix to the stored id."""
        matches = [i for i in self.ids() if i.startswith(pub_id)]
        if not matches:
            raise KeyError(f"no publication with id {pub_id!r}")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous id prefix {pub_id!r}: {len(matches)} matches"
            )
        return matches[0]

    def record(self, pub_id: str) -> PublicationRecord:
        """The manifest record of one admitted publication."""
        pub_id = self.resolve(pub_id)
        manifest = json.loads(
            (self._objects / pub_id / "manifest.json").read_text()
        )
        return PublicationRecord.from_manifest(manifest)

    def records(self) -> list[PublicationRecord]:
        return [self.record(i) for i in self.ids()]

    def versions(self, name: str) -> "list[PublicationRecord]":
        """All records published under ``name``, lineage-ordered.

        Every parent precedes its children; roots (no parent, or a
        parent outside the named set) come first.  The expected shape is
        a linear append→refresh chain, but branches are handled
        deterministically: siblings order by id, and the walk is
        depth-first, so ``versions(...)[-1]`` — what :meth:`latest`
        returns — is the deepest (most-refreshed) version.
        """
        records = [r for r in self.records() if r.name == name]
        ids = {r.pub_id for r in records}
        children: dict = {}
        for record in sorted(records, key=lambda r: r.pub_id):
            anchor = (
                record.parent_id if record.parent_id in ids else None
            )
            children.setdefault(anchor, []).append(record)
        ordered: list[PublicationRecord] = []
        stack = list(reversed(children.get(None, [])))
        while stack:
            record = stack.pop()
            ordered.append(record)
            stack.extend(reversed(children.get(record.pub_id, [])))
        return ordered

    def latest(self, name: str) -> PublicationRecord:
        """The most-refreshed version published under ``name``."""
        chain = self.versions(name)
        if not chain:
            raise KeyError(f"no publications named {name!r}")
        return chain[-1]

    def get(self, pub_id: str):
        """Load a publication back into its answerable object form.

        When the payload carries a persisted count cube (``aux_``
        entries; see :meth:`put`), the cube is restored and attached to
        the returned object, so the serving layer's ``auto`` backend
        can answer from it without rebuilding anything.
        """
        pub_id = self.resolve(pub_id)
        meta, arrays = read_publication_payload(
            self._objects / pub_id / "payload.npz"
        )
        if content_digest(meta, arrays) != pub_id:
            raise ValueError(
                f"payload of {pub_id} does not hash to its id; "
                "the store object is corrupt"
            )
        published = publication_from_payload(meta, arrays)
        # The reloaded object is content-equal to what was admitted;
        # stamping the id lets content-keyed facade caches treat it as
        # the same publication (the whole point of content addressing).
        published._content_digest = pub_id
        cube_meta = meta.get("aux_cube")
        if cube_meta is not None:
            published._count_cube = CountCube.from_payload(cube_meta, arrays)
        return published
