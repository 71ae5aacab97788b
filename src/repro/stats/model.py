"""The statistics catalog: what the optimizer knows about the data.

The paper's Section 6 treats catalogs as ordinary algebraic structures that
rule conditions consult (``rep(rel, repobj)``); the statistics catalog
extends that idea to *quantitative* knowledge.  A :class:`StatsCatalog`
lives on every :class:`~repro.catalog.database.Database` and maps object
names to immutable :class:`RelationStats` entries:

* relation-level: row count (kept incrementally up to date through
  ``Database.set_value``) and the row count as of the last ``analyze``;
* per-attribute: distinct count, min/max, and an equi-depth
  :class:`EquiDepthHistogram` over orderable attribute values;
* structure-level: B-tree height/order/page counts, LSD-tree bucket
  counts — the physical shape behind the logical numbers;
* observed: predicate selectivities folded back from executed plans by the
  cardinality-feedback recorder (:mod:`repro.stats.feedback`).

Entries are **immutable**; every mutation goes through copy-on-write
(:func:`dataclasses.replace`), so a transaction savepoint is just a shallow
``dict`` copy — the same snapshot discipline the catalog dictionaries use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

HISTOGRAM_BUCKETS = 16
"""Default number of equi-depth buckets per attribute histogram."""

STALE_FRACTION = 0.3
"""An entry whose live row count drifted more than this fraction from the
analyzed row count is *stale*: histograms still describe the distribution
shape but absolute counts should be trusted less."""


@dataclass(frozen=True, slots=True)
class EquiDepthHistogram:
    """An equi-depth histogram: ``edges[i]..edges[i+1]`` holds ``counts[i]``
    values.  Duplicate-heavy data yields repeated edges (legal: the bucket
    then covers a single value and the interpolation degenerates to it)."""

    edges: tuple
    counts: tuple[int, ...]
    total: int

    @classmethod
    def build(
        cls, values: list, buckets: int = HISTOGRAM_BUCKETS
    ) -> Optional["EquiDepthHistogram"]:
        """A histogram over ``values``, or ``None`` when they do not sort
        (mixed or unordered domains carry no range statistics)."""
        if not values:
            return None
        try:
            ordered = sorted(values)
        except TypeError:
            return None
        n = len(ordered)
        b = max(1, min(buckets, n))
        edges = [ordered[0]]
        counts = []
        for i in range(b):
            end = ((i + 1) * n) // b
            start = (i * n) // b
            if end <= start:
                continue
            edges.append(ordered[end - 1])
            counts.append(end - start)
        return cls(tuple(edges), tuple(counts), n)

    def fraction_le(self, value) -> float:
        """Estimated fraction of values ``<= value`` (linear interpolation
        within the straddled bucket)."""
        try:
            if value < self.edges[0]:
                return 0.0
            if value >= self.edges[-1]:
                return 1.0
        except TypeError:
            return 0.5
        cumulative = 0.0
        for i, count in enumerate(self.counts):
            low, high = self.edges[i], self.edges[i + 1]
            if value >= high:
                cumulative += count
                continue
            if value > low:
                cumulative += count * _interp(low, high, value)
            break
        return cumulative / self.total

    def fraction_at(self, value) -> float:
        """Estimated fraction of values equal to ``value`` — the mass of the
        straddling bucket spread uniformly over its width (coarse, but keeps
        ``<=`` vs ``>=`` consistent at bucket edges)."""
        try:
            if value < self.edges[0] or value > self.edges[-1]:
                return 0.0
        except TypeError:
            return 0.0
        mass = 0.0
        for i, count in enumerate(self.counts):
            low, high = self.edges[i], self.edges[i + 1]
            # Duplicate-heavy data yields runs of zero-width buckets all
            # holding the same value; their masses must accumulate.
            if low == high:
                if low == value:
                    mass += count / self.total
                continue
            inside = (low <= value <= high) if i == 0 else (low < value <= high)
            if inside:
                mass += (count / self.total) / max(count, 1)
        return mass

    def fraction_between(self, low, high) -> float:
        """Estimated fraction in ``[low, high]``; ``None`` bounds are open."""
        upper = self.fraction_le(high) if high is not None else 1.0
        lower = (
            self.fraction_le(low) - self.fraction_at(low)
            if low is not None
            else 0.0
        )
        return max(0.0, min(1.0, upper - max(0.0, lower)))

    @property
    def buckets(self) -> int:
        return len(self.counts)

    def as_dict(self) -> dict:
        return {
            "buckets": self.buckets,
            "total": self.total,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }


def _interp(low, high, value) -> float:
    try:
        width = high - low
        if not width:
            return 1.0
        return max(0.0, min(1.0, (value - low) / width))
    except TypeError:
        return 0.5  # orderable but not subtractable (e.g. strings)


@dataclass(frozen=True, slots=True)
class AttributeStats:
    """Statistics for one attribute of one analyzed object."""

    name: str
    count: int
    distinct: int
    min: object = None
    max: object = None
    histogram: Optional[EquiDepthHistogram] = None

    def selectivity_eq(self, value) -> Optional[float]:
        """Estimated fraction of rows with attribute = ``value``."""
        if self.distinct <= 0:
            return None
        if self.histogram is not None:
            try:
                if value < self.min or value > self.max:
                    return 1.0 / max(self.count, 1)
            except TypeError:
                pass
        return 1.0 / self.distinct

    def selectivity_range(self, low, high) -> Optional[float]:
        """Estimated fraction of rows in ``[low, high]`` (``None`` = open)."""
        if self.histogram is None:
            return None
        return self.histogram.fraction_between(low, high)

    def as_dict(self) -> dict:
        d = {
            "count": self.count,
            "distinct": self.distinct,
            "min": self.min,
            "max": self.max,
        }
        if self.histogram is not None:
            d["histogram"] = self.histogram.as_dict()
        return d


@dataclass(frozen=True, slots=True)
class RelationStats:
    """Statistics for one analyzed object (relation or rep structure).

    ``row_count`` is maintained incrementally by the update path;
    ``analyzed_rows`` is the count at the last ``analyze`` — their drift
    defines :attr:`stale`.  ``observed`` maps predicate keys (formatted
    predicate terms) to selectivities folded back from execution feedback.
    """

    name: str
    row_count: int
    analyzed_rows: int
    attributes: dict[str, AttributeStats] = field(default_factory=dict)
    structure: dict = field(default_factory=dict)
    key_attr: Optional[str] = None
    observed: dict[str, float] = field(default_factory=dict)

    @property
    def stale(self) -> bool:
        base = max(self.analyzed_rows, 1)
        return abs(self.row_count - self.analyzed_rows) > STALE_FRACTION * base

    def attr(self, name: str) -> Optional[AttributeStats]:
        return self.attributes.get(name)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "row_count": self.row_count,
            "analyzed_rows": self.analyzed_rows,
            "stale": self.stale,
            "key_attr": self.key_attr,
            "structure": dict(self.structure),
            "attributes": {
                name: a.as_dict() for name, a in self.attributes.items()
            },
            "observed": dict(self.observed),
        }


class StatsCatalog:
    """Per-database statistics: object name -> :class:`RelationStats`.

    All mutations are copy-on-write over immutable entries, so
    :meth:`snapshot` / :meth:`restore` (the transaction hooks) are shallow
    dict copies — rollback-safe at pointer-copy cost, exactly like the
    ``aliases`` / ``objects`` catalog dictionaries.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[dict] = None) -> None:
        self.entries: dict[str, RelationStats] = dict(entries or {})

    def get(self, name: str) -> Optional[RelationStats]:
        return self.entries.get(name)

    def put(self, stats: RelationStats) -> None:
        self.entries[stats.name] = stats

    def discard(self, name: str) -> None:
        self.entries.pop(name, None)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RelationStats]:
        return iter(self.entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    # ---- incremental maintenance (hot path: guarded by `if entries`)

    def note_rowcount(self, name: str, count: int) -> None:
        """Record the live row count of an analyzed object (called from the
        transactional write path on every successful ``set_value``)."""
        entry = self.entries.get(name)
        if entry is not None and entry.row_count != count:
            self.entries[name] = replace(entry, row_count=count)

    def record_observed(
        self, name: str, key: str, selectivity: float, alpha: float = 0.5
    ) -> None:
        """Fold an observed predicate selectivity into the entry (EWMA with
        weight ``alpha`` on the newest observation)."""
        entry = self.entries.get(name)
        if entry is None:
            return
        previous = entry.observed.get(key)
        blended = (
            selectivity
            if previous is None
            else alpha * selectivity + (1.0 - alpha) * previous
        )
        observed = dict(entry.observed)
        observed[key] = blended
        self.entries[name] = replace(entry, observed=observed)

    # ---- transaction hooks

    def snapshot(self) -> dict[str, RelationStats]:
        return dict(self.entries)

    def restore(self, snap: dict[str, RelationStats]) -> None:
        self.entries.clear()
        self.entries.update(snap)

    def __repr__(self) -> str:
        return f"<StatsCatalog entries={sorted(self.entries)}>"
