"""Helpers shared by the test modules: deterministic memory measurements
with tracemalloc, which counts the allocations of numpy arrays and Python
objects and reads no RSS."""

import math
import tracemalloc

import numpy as np

from hsclab import dsl
from hsclab.positivity import scan_chart


def traced_peak(fn) -> int:
    """tracemalloc peak, in bytes, of one call of fn()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_jet_passes(monkeypatch) -> list:
    """Wrap dsl.eval_jet, the one entry point of the derivative tape, run
    once per block of points on a spec's whole entry matrix; returns the
    list that collects (entries, points) per pass."""
    inner, passes = dsl.eval_jet, []

    def recording(entries, n, points):
        passes.append((entries, math.prod(np.shape(points)[:-1])))
        return inner(entries, n, points)

    monkeypatch.setattr(dsl, "eval_jet", recording)
    return passes


def off_centre(box, shift: float = 0.125) -> tuple:
    """box with its first Rect moved by shift along the real axis: no
    longer centred at 0, so dsl.grid_orbits refuses the chart and a scan
    evaluates every grid point."""
    r = box[0]
    return (dsl.Rect(r.re_min + shift, r.re_max + shift, r.im_min, r.im_max),) + box[1:]


def scan_peak_above_kept(grid: int) -> int:
    """tracemalloc peak of a paper_G(1) scan at the given grid, on its box
    moved off centre so that every grid point is evaluated, less the
    bytes of the per-point arrays the scan keeps to its end: points, g, R,
    minima and directions."""
    spec = dsl.catalog("paper_G(1)")
    box = off_centre(spec.box)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = scan_chart(spec, box=box, grid_per_axis=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    P, n = rep.points.shape
    kept = P * 16 * (n + n ** 2 + n ** 4 + n) + P * 8
    return peak - kept
