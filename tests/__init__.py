"""Shared helpers for the test suite."""

from repro.pdf import BoxRegion, IntervalSet


def mass_at(pdf, point) -> float:
    """The mass ``pdf`` puts on one point: the mass of its floor to that point.

    ``point`` is a value for a one-attribute pdf, or an attribute → value
    mapping (``mass_at(joint, {"a": 1, "b": 2})``).
    """
    if not isinstance(point, dict):
        point = {pdf.attrs[0]: point}
    return pdf.restrict(BoxRegion({a: IntervalSet.point(v) for a, v in point.items()})).mass()
