"""Spatial data types and operators shared by model and representation level.

Section 4 of the paper extends ``DATA`` with ``point``, ``rect`` and ``pgon``
and uses the operators::

    point x pgon -> bool   inside    ( _ # _ )
    pgon -> rect           bbox      # ( _ )

``inside`` is additionally defined for points in rectangles and rectangles in
rectangles, which the spatial-join filter steps rely on.
"""

from __future__ import annotations

from repro.core.sorts import ListSort, UnionSort
from repro.core.sos import SignatureBuilder
from repro.core.types import TypeApp
from repro.geometry import Point, Polygon, Rect

POINT = TypeApp("point")
RECT = TypeApp("rect")
PGON = TypeApp("pgon")
BOOL = TypeApp("bool")


def add_spatial_types(builder: SignatureBuilder, data_kind="DATA", level="hybrid"):
    """Register the spatial constant types in ``data_kind``."""
    builder.constant_types(data_kind, "point", "rect", "pgon", level=level)


def add_spatial_operators(builder: SignatureBuilder, level="hybrid"):
    """Register ``inside``, ``bbox`` and ``intersects``."""
    builder.op(
        "inside",
        args=(POINT, PGON),
        result=BOOL,
        syntax="( _ # _ )",
        impl=lambda ctx, p, pg: pg.contains_point(p),
        level=level,
        doc="point-in-polygon containment",
    )
    builder.op(
        "inside",
        args=(POINT, RECT),
        result=BOOL,
        syntax="( _ # _ )",
        impl=lambda ctx, p, r: r.contains_point(p),
        level=level,
        doc="point-in-rectangle containment",
    )
    builder.op(
        "inside",
        args=(RECT, RECT),
        result=BOOL,
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: b.contains_rect(a),
        level=level,
        doc="rectangle containment (first inside second)",
    )
    builder.op(
        "intersects",
        args=(RECT, RECT),
        result=BOOL,
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: a.intersects(b),
        level=level,
        doc="rectangle overlap",
    )
    num = UnionSort((TypeApp("int"), TypeApp("real")))
    builder.op(
        "pt",
        args=(num, num),
        result=POINT,
        syntax="# ( _, _ )",
        impl=lambda ctx, x, y: Point(float(x), float(y)),
        level=level,
        doc="point construction from coordinates",
    )
    builder.op(
        "box",
        args=(num, num, num, num),
        result=RECT,
        syntax="# ( _, _, _, _ )",
        impl=lambda ctx, x1, y1, x2, y2: Rect(
            float(x1), float(y1), float(x2), float(y2)
        ),
        level=level,
        doc="axis-parallel rectangle from corner coordinates",
    )
    builder.op(
        "region_box",
        args=(num, num, num, num),
        result=PGON,
        syntax="# ( _, _, _, _ )",
        impl=lambda ctx, x1, y1, x2, y2: Polygon.rectangle(
            float(x1), float(y1), float(x2), float(y2)
        ),
        level=level,
        doc="rectangular polygon (synthetic regions)",
    )
    builder.op(
        "poly",
        args=(ListSort(POINT),),
        result=PGON,
        syntax="#[ _ ]",
        impl=lambda ctx, vertices: Polygon(tuple(vertices)),
        level=level,
        doc="polygon from a vertex list: poly[<pt(0,0), pt(4,0), pt(2,3)>]",
    )
    builder.op(
        "bbox",
        args=(PGON,),
        result=RECT,
        syntax="# ( _ )",
        impl=lambda ctx, pg: pg.bbox(),
        level=level,
        doc="bounding box of a polygon",
    )


def register_spatial_carriers(algebra) -> None:
    algebra.register_carrier("point", lambda alg, v, t: isinstance(v, Point))
    algebra.register_carrier("rect", lambda alg, v, t: isinstance(v, Rect))
    algebra.register_carrier("pgon", lambda alg, v, t: isinstance(v, Polygon))
