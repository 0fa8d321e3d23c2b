"""Serialization of publications to interchange formats.

A data publisher needs artifacts, not Python objects.  This module
writes the publication formats to CSV (the microdata itself, in the
exact shape a recipient would receive) and JSON (the side information
each scheme publishes along with the data):

* a **generalized** table exports one row per tuple with generalized QI
  values (interval strings / hierarchy node labels) and the verbatim SA
  value — the classic anonymized-microdata release;
* a **perturbed** table exports exact QI values with randomized SA
  values, plus a JSON sidecar holding the transition matrix ``PM`` and
  the overall SA distribution (Section 5 prescribes publishing both);
* an **Anatomy** table exports the two-table release of Xiao & Tao:
  exact QI values tagged with a group id, plus a JSON sidecar holding
  each group's SA multiset;
* a generic reader recovers the row streams for downstream tooling.

Beyond the human-readable exports, the module provides a **lossless**
binary round-trip for every publication kind
(:func:`publication_payload` / :func:`publication_from_payload`, and the
file-level :func:`save_publication` / :func:`load_publication`): the
restored object is answerable and auditable exactly like the original —
same arrays byte for byte, same schema, same hierarchies.  This is the
persistence substrate of the :mod:`repro.service` publication store.

CSV writing uses the standard library's ``csv`` module; no dependency
beyond numpy is introduced.
"""

from __future__ import annotations

import csv
import hashlib
import json
import uuid
from pathlib import Path

import numpy as np

from .anonymity.anatomy import AnatomyTable, BaselinePublication
from .core.perturb import PerturbationScheme, PerturbedTable
from .dataset.display import describe_interval
from .dataset.published import GeneralizedTable
from .dataset.schema import Attribute, AttributeKind, Schema, SensitiveAttribute
from .dataset.table import Table
from .hierarchy import Hierarchy, Node


def generalized_to_rows(published: GeneralizedTable) -> list[dict[str, str]]:
    """One dict per tuple: generalized QI strings + leaf SA label."""
    schema = published.schema
    rows: list[dict[str, str]] = []
    for ec_id, ec in enumerate(published):
        qi_cells = {
            schema.qi[j].name: describe_interval(schema, j, lo, hi).split("=", 1)[1]
            for j, (lo, hi) in enumerate(ec.box)
        }
        for row in ec.rows:
            record = {"ec": str(ec_id), **qi_cells}
            record[schema.sensitive.name] = schema.sensitive.values[
                int(published.source.sa[row])
            ]
            rows.append(record)
    return rows


def write_generalized_csv(published: GeneralizedTable, path: str | Path) -> None:
    """Write a generalized publication as CSV (one line per tuple).

    The header is derived from the schema, not from the first exported
    row, so an empty publication produces a valid header-only file
    instead of crashing.
    """
    schema = published.schema
    names = ["ec"] + [attr.name for attr in schema.qi] + [schema.sensitive.name]
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=names)
        writer.writeheader()
        writer.writerows(generalized_to_rows(published))


def anatomy_to_rows(published: AnatomyTable) -> list[dict[str, str]]:
    """One dict per tuple of the QI table: exact QIs plus the group id."""
    schema = published.source.schema
    qi = published.source.qi
    rows: list[dict[str, str]] = []
    for group_id, group in enumerate(published.groups):
        for row in group.rows:
            record = {"group": str(group_id)}
            for j, attr in enumerate(schema.qi):
                value = int(qi[row, j])
                if attr.kind is AttributeKind.CATEGORICAL:
                    record[attr.name] = attr.hierarchy.leaf_label(value)
                else:
                    record[attr.name] = str(value)
            rows.append(record)
    return rows


def write_anatomy_csv(
    published: AnatomyTable, path: str | Path, sidecar: str | Path | None = None
) -> None:
    """Write an Anatomy publication: QI table as CSV, SA table as JSON.

    The CSV holds one line per tuple with exact QI values and the tuple's
    group id (Xiao & Tao's quasi-identifier table); the JSON sidecar
    holds the sensitive table — each group's SA multiset — plus ``l``.

    Args:
        published: The Anatomy publication.
        path: CSV destination for the QI table.
        sidecar: JSON destination for the sensitive table; defaults to
            ``path`` with a ``.json`` suffix.
    """
    schema = published.source.schema
    names = ["group"] + [attr.name for attr in schema.qi]
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=names)
        writer.writeheader()
        writer.writerows(anatomy_to_rows(published))
    sidecar = Path(sidecar) if sidecar is not None else path.with_suffix(".json")
    payload = {
        "sensitive_attribute": schema.sensitive.name,
        "l": published.l,
        "groups": [
            {
                schema.sensitive.values[code]: int(count)
                for code, count in enumerate(group.sa_counts)
                if count > 0
            }
            for group in published.groups
        ],
    }
    sidecar.write_text(json.dumps(payload, indent=2))


def write_perturbed_csv(
    published: PerturbedTable, path: str | Path, sidecar: str | Path | None = None
) -> None:
    """Write a perturbed publication as CSV plus its JSON sidecar.

    Args:
        published: The perturbation output.
        path: CSV destination (exact QIs, randomized SA).
        sidecar: JSON destination for ``PM`` and the overall SA
            distribution; defaults to ``path`` with a ``.json`` suffix.
    """
    schema = published.schema
    path = Path(path)
    with path.open("w", newline="") as handle:
        names = [attr.name for attr in schema.qi] + [schema.sensitive.name]
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(published.n_rows):
            cells = [str(int(v)) for v in published.qi[i]]
            cells.append(schema.sensitive.values[int(published.sa_perturbed[i])])
            writer.writerow(cells)
    sidecar = Path(sidecar) if sidecar is not None else path.with_suffix(".json")
    scheme = published.scheme
    payload = {
        "sensitive_attribute": schema.sensitive.name,
        "domain": [
            schema.sensitive.values[int(code)] for code in scheme.domain
        ],
        "overall_distribution": scheme.probs.tolist(),
        "transition_matrix": scheme.matrix.tolist(),
        "alphas": scheme.alphas.tolist(),
    }
    sidecar.write_text(json.dumps(payload, indent=2))


def read_perturbation_sidecar(path: str | Path) -> dict:
    """Load a perturbation sidecar; arrays come back as numpy."""
    payload = json.loads(Path(path).read_text())
    payload["overall_distribution"] = np.asarray(payload["overall_distribution"])
    payload["transition_matrix"] = np.asarray(payload["transition_matrix"])
    payload["alphas"] = np.asarray(payload["alphas"])
    return payload


def read_csv_rows(path: str | Path) -> list[dict[str, str]]:
    """Read any CSV written by this module back into dict rows."""
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


def _read_csv_records(path: str | Path) -> tuple[list[str], list[tuple[int, dict]]]:
    """The header and ``(line number, row)`` pairs of a raw CSV file.

    A row with fewer or more fields than the header is refused, naming
    its 1-based line and the column it is missing or runs past.
    """
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        records = []
        for fields in reader:
            if not fields:
                continue  # a blank line, as csv.DictReader skips it
            if len(fields) < len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: column "
                    f"{header[len(fields)]} is missing ({len(fields)} of "
                    f"{len(header)} fields)"
                )
            if len(fields) > len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: {len(fields)} fields "
                    f"where the header has {len(header)}, past its last "
                    f"column {header[-1]}"
                )
            records.append((reader.line_num, dict(zip(header, fields))))
    return header, records


def _int_column(path, records: list, name: str) -> np.ndarray:
    """Parse one numerical column, naming the first unparsable cell."""
    values = []
    for line, row in records:
        try:
            values.append(int(row[name]))
        except ValueError:
            raise ValueError(
                f"{path}: line {line}: column {name}: {row[name]!r} is not "
                "an integer"
            ) from None
    return np.array(values, dtype=np.int64)


def _coded_column(path, records: list, name: str, codes: dict, domain: str):
    """Map one label column through ``codes``, naming the first label
    outside it."""
    out = []
    for line, row in records:
        try:
            out.append(codes[row[name]])
        except KeyError:
            raise ValueError(
                f"{path}: line {line}: column {name}: label {row[name]!r} "
                f"is not in {domain}"
            ) from None
    return np.array(out, dtype=np.int64)


def load_csv_table(
    path: str | Path,
    qi_names: list[str],
    sensitive_name: str,
    numerical: list[str] | None = None,
    *,
    schema: "Schema | None" = None,
):
    """Load raw microdata from a CSV file into a :class:`Table`.

    Args:
        path: CSV with a header row.
        qi_names: Columns forming the quasi-identifier, in order.
        sensitive_name: The sensitive column.
        numerical: QI columns to parse as integers; the rest become
            categorical attributes under flat (height-1) hierarchies
            built from their observed values, sorted for determinism.
        schema: Encode against this existing schema instead of deriving
            one from the observed values.  This is the **append path**:
            a delta CSV loaded on its own would get domains and label
            codes of its *own* observed values, silently incomparable
            with the base table's; encoding against the base schema
            keeps codes aligned and rejects out-of-domain rows loudly.
            ``qi_names``/``sensitive_name`` must match the schema's
            column names (and order, for the QI).

    Returns:
        A :class:`repro.dataset.table.Table`.  Intended for the CLI and
        for users bringing their own data; hierarchical categorical
        attributes should be constructed programmatically instead.

    Raises:
        ValueError: On a malformed row — a missing or extra field, a
            non-integer numerical value or, on the append path, a value
            outside the base schema — naming the file, the row's 1-based
            line number and the column.
    """
    numerical = set(numerical or [])
    header, records = _read_csv_records(path)
    if not records:
        raise ValueError(f"{path}: empty file")
    missing = [c for c in qi_names + [sensitive_name] if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")

    if schema is not None:
        return _encode_against_schema(
            path, records, qi_names, sensitive_name, schema
        )

    attributes = []
    columns: list[np.ndarray] = []
    for name in qi_names:
        if name in numerical:
            values = _int_column(path, records, name)
            attributes.append(
                Attribute.numerical(name, int(values.min()), int(values.max()))
            )
            columns.append(values)
        else:
            labels = sorted({row[name] for _, row in records})
            hierarchy = Hierarchy.flat(labels, root_label=f"any-{name}")
            rank = {label: hierarchy.rank_of(label) for label in labels}
            attributes.append(Attribute.categorical(name, hierarchy))
            columns.append(
                np.array([rank[row[name]] for _, row in records], dtype=np.int64)
            )

    sa_labels = tuple(sorted({row[sensitive_name] for _, row in records}))
    sensitive = SensitiveAttribute(sensitive_name, sa_labels)
    sa_code = {label: code for code, label in enumerate(sa_labels)}
    sa = np.array(
        [sa_code[row[sensitive_name]] for _, row in records], dtype=np.int64
    )
    schema = Schema(attributes, sensitive)
    return Table(schema, np.column_stack(columns), sa)


def _encode_against_schema(
    path, records: list, qi_names, sensitive_name, schema: Schema
):
    """Encode CSV rows under an already-fixed schema (append path)."""
    expected = [attr.name for attr in schema.qi]
    if list(qi_names) != expected:
        raise ValueError(
            f"{path}: QI columns {list(qi_names)} do not match the base "
            f"schema's {expected}"
        )
    if sensitive_name != schema.sensitive.name:
        raise ValueError(
            f"{path}: sensitive column {sensitive_name!r} does not match "
            f"the base schema's {schema.sensitive.name!r}"
        )
    columns: list[np.ndarray] = []
    for attr in schema.qi:
        if attr.kind is AttributeKind.CATEGORICAL:
            columns.append(
                _coded_column(
                    path, records, attr.name, attr.hierarchy.label_to_rank,
                    "the base schema's hierarchy",
                )
            )
            continue
        values = _int_column(path, records, attr.name)
        outside = np.flatnonzero((values < attr.lo) | (values > attr.hi))
        if outside.size:
            line, row = records[outside[0]]
            raise ValueError(
                f"{path}: line {line}: column {attr.name}: value "
                f"{row[attr.name]} is outside the base schema's domain "
                f"[{attr.lo}, {attr.hi}]"
            )
        columns.append(values)
    sa = _coded_column(
        path, records, sensitive_name,
        {label: code for code, label in enumerate(schema.sensitive.values)},
        "the base schema's domain",
    )
    return Table(schema, np.column_stack(columns), sa)


# ----------------------------------------------------------------------
# Lossless publication round-trip (the repro.service store substrate)
# ----------------------------------------------------------------------

#: Format tag each serialized payload carries; bump on layout changes.
PAYLOAD_FORMAT = 1


def _hierarchy_spec(node: Node):
    """A hierarchy node as the nested JSON form ``from_spec`` accepts."""
    if node.is_leaf:
        return node.label
    return [node.label, [_hierarchy_spec(child) for child in node.children]]


def schema_to_spec(schema: Schema) -> dict:
    """A :class:`Schema` as a JSON-serializable specification."""
    qi = []
    for attr in schema.qi:
        if attr.kind is AttributeKind.CATEGORICAL:
            qi.append(
                {
                    "name": attr.name,
                    "kind": "categorical",
                    "hierarchy": _hierarchy_spec(attr.hierarchy.root),
                }
            )
        else:
            qi.append(
                {
                    "name": attr.name,
                    "kind": "numerical",
                    "lo": attr.lo,
                    "hi": attr.hi,
                }
            )
    sensitive = {
        "name": schema.sensitive.name,
        "values": list(schema.sensitive.values),
    }
    if schema.sensitive.hierarchy is not None:
        sensitive["hierarchy"] = _hierarchy_spec(schema.sensitive.hierarchy.root)
    return {"qi": qi, "sensitive": sensitive}


def schema_from_spec(spec: dict) -> Schema:
    """Rebuild a :class:`Schema` from :func:`schema_to_spec` output."""
    qi = []
    for entry in spec["qi"]:
        if entry["kind"] == "categorical":
            qi.append(
                Attribute.categorical(
                    entry["name"], Hierarchy.from_spec(entry["hierarchy"])
                )
            )
        else:
            qi.append(
                Attribute.numerical(entry["name"], entry["lo"], entry["hi"])
            )
    sensitive_spec = spec["sensitive"]
    hierarchy = None
    if sensitive_spec.get("hierarchy") is not None:
        hierarchy = Hierarchy.from_spec(sensitive_spec["hierarchy"])
    sensitive = SensitiveAttribute(
        sensitive_spec["name"], tuple(sensitive_spec["values"]), hierarchy
    )
    return Schema(qi, sensitive)


def publication_payload(published) -> tuple[dict, dict]:
    """Decompose a publication into JSON metadata plus numpy arrays.

    Supports all four answerable publication kinds — generalized,
    perturbed, Anatomy, and the §6.3 Baseline.  The source table rides
    along (publications embed it, and the query estimators for exact-QI
    formats legitimately read the published QI values from it), so the
    payload is self-contained.  Group-based publications pass their
    columnar arrays straight through: ``group_rows`` and
    ``group_offsets`` are the publication's ``rows`` and ``offsets``,
    and a generalization adds its ``boxes``.  The SA histograms and the
    row→group map are derived from these on load, so they are not
    stored.

    Returns:
        ``(meta, arrays)``: ``meta`` is JSON-serializable (``format``,
        ``kind``, the schema spec, scalar fields); ``arrays`` maps array
        names to numpy arrays.
    """
    source = published.source
    meta: dict = {
        "format": PAYLOAD_FORMAT,
        "schema": schema_to_spec(source.schema),
    }
    arrays: dict = {"qi": source.qi, "sa": source.sa}
    if isinstance(published, GeneralizedTable):
        meta["kind"] = "generalized"
        arrays["group_rows"] = published.rows
        arrays["group_offsets"] = published.offsets
        # Boxes are stored, not recomputed: full-domain publications use
        # ladder intervals wider than the member rows' min/max span.
        arrays["boxes"] = published.boxes
    elif isinstance(published, PerturbedTable):
        meta["kind"] = "perturbed"
        meta["c_lm"] = published.scheme.c_lm
        arrays["sa_perturbed"] = published.sa_perturbed
        scheme = published.scheme
        arrays.update(
            domain=scheme.domain,
            probs=scheme.probs,
            caps=scheme.caps,
            gammas=scheme.gammas,
            alphas=scheme.alphas,
            matrix=scheme.matrix,
        )
    elif isinstance(published, AnatomyTable):
        meta["kind"] = "anatomy"
        meta["l"] = published.l
        arrays["group_rows"] = published.rows
        arrays["group_offsets"] = published.offsets
    elif isinstance(published, BaselinePublication):
        meta["kind"] = "baseline"
    else:
        raise TypeError(
            f"cannot serialize publication type {type(published).__name__!r}"
        )
    return meta, arrays


def content_digest(meta: dict, arrays: "dict[str, np.ndarray]") -> str:
    """SHA-256 of a payload's logical content.

    Hashes the canonical metadata JSON plus each array's name, dtype,
    shape and raw bytes (names sorted), so the id is independent of
    archive container details like zip timestamps.  This digest is the
    publication id of the :mod:`repro.service` store *and* the
    publication key of the :class:`repro.api.ArtifactCache`, so a
    publication reloaded from a store hits the same cache entries as
    the object it was saved from.

    Metadata keys and array names prefixed ``aux_`` are **excluded**:
    they carry derived serving artifacts (the store's precomputed count
    cubes; see :mod:`repro.query.cube`) that are a pure function of the
    logical content, so attaching or dropping them must never change a
    publication's identity.
    """
    hasher = hashlib.sha256()
    logical = {k: v for k, v in meta.items() if not k.startswith("aux_")}
    hasher.update(json.dumps(logical, sort_keys=True).encode())
    for name in sorted(arrays):
        if name.startswith("aux_"):
            continue
        array = np.ascontiguousarray(arrays[name])
        hasher.update(name.encode())
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def table_digest(table: Table) -> str:
    """SHA-256 of a table's logical content (schema spec + QI + SA).

    The result is memoized on the table object, so repeated cache-key
    derivations after the first are free.  Two tables with equal schema
    and equal cell values share a digest even when they are distinct
    objects — e.g. the same microdata reloaded from CSV.
    """
    digest = table.__dict__.get("_content_digest")
    if digest is None:
        hasher = hashlib.sha256()
        hasher.update(
            json.dumps(schema_to_spec(table.schema), sort_keys=True).encode()
        )
        hasher.update(np.ascontiguousarray(table.qi).tobytes())
        hasher.update(np.ascontiguousarray(table.sa).tobytes())
        digest = hasher.hexdigest()
        table._content_digest = digest
    return digest


def publication_digest(published) -> str:
    """Content digest of a publication, memoized on the object.

    Prefers a digest already attached by the publication store (``put``
    and ``get`` both stamp one), falling back to hashing the lossless
    payload — the exact bytes the store would persist — so facade cache
    keys always agree with store ids.
    """
    digest = getattr(published, "_content_digest", None)
    if digest is None:
        meta, arrays = publication_payload(published)
        digest = content_digest(meta, arrays)
        try:
            published._content_digest = digest
        except AttributeError:  # pragma: no cover - frozen/slots formats
            pass
    return digest


def publication_from_payload(meta: dict, arrays: dict):
    """Rebuild the publication object from :func:`publication_payload`.

    The round-trip is lossless: every array is byte-identical, so the
    restored object answers queries and audits exactly like the
    original.
    """
    if meta.get("format") != PAYLOAD_FORMAT:
        raise ValueError(
            f"unsupported payload format {meta.get('format')!r}; "
            f"this build reads format {PAYLOAD_FORMAT}"
        )
    schema = schema_from_spec(meta["schema"])
    table = Table(schema, arrays["qi"], arrays["sa"])
    kind = meta["kind"]
    if kind == "generalized":
        return GeneralizedTable(
            table, arrays["group_rows"], arrays["group_offsets"],
            arrays["boxes"],
        )
    if kind == "perturbed":
        scheme = PerturbationScheme(
            domain=arrays["domain"],
            probs=arrays["probs"],
            caps=arrays["caps"],
            gammas=arrays["gammas"],
            alphas=arrays["alphas"],
            c_lm=float(meta["c_lm"]),
            matrix=arrays["matrix"],
        )
        return PerturbedTable(
            source=table, sa_perturbed=arrays["sa_perturbed"], scheme=scheme
        )
    if kind == "anatomy":
        return AnatomyTable(
            table, arrays["group_rows"], arrays["group_offsets"],
            int(meta["l"]),
        )
    if kind == "baseline":
        return BaselinePublication(source=table)
    raise ValueError(f"unknown publication kind {kind!r}")


def unique_sibling(path: Path) -> Path:
    """A temporary name next to ``path`` that no other writer shares.

    Writers land files as temp-name + rename; a per-call name keeps two
    concurrent writers of one path from renaming each other's file away.
    """
    return path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")


def write_publication_payload(
    meta: dict, arrays: dict, path: str | Path
) -> None:
    """Write an already-decomposed payload as one ``.npz`` archive.

    The JSON metadata travels inside the archive as a ``meta`` entry, so
    a single file is a complete, losslessly restorable publication.  The
    archive is written to a uniquely named temporary sibling and moved
    into place, so a ``path`` that exists is always a complete archive,
    even with several writers of the same path.
    """
    path = Path(path)
    tmp = unique_sibling(path)
    with tmp.open("wb") as handle:
        np.savez(
            handle,
            meta=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
            ),
            **arrays,
        )
    tmp.replace(path)


def save_publication(published, path: str | Path) -> None:
    """Write a publication as one ``.npz`` archive (arrays + metadata)."""
    meta, arrays = publication_payload(published)
    write_publication_payload(meta, arrays, path)


def read_publication_payload(path: str | Path) -> tuple[dict, dict]:
    """``(meta, arrays)`` of a :func:`save_publication` archive.

    The shared low-level reader: :func:`load_publication` restores the
    object directly, while the service store reads the raw payload to
    verify its content digest first.
    """
    with np.load(Path(path)) as archive:
        meta = json.loads(archive["meta"].tobytes().decode())
        arrays = {
            name: archive[name] for name in archive.files if name != "meta"
        }
    return meta, arrays


def load_publication(path: str | Path):
    """Restore a publication written by :func:`save_publication`."""
    return publication_from_payload(*read_publication_payload(path))
