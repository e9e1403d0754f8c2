"""``repro.imaging`` — converting time series into RGB line-chart images.

The paper plots each variable of a sample as a line chart ('*' markers joined
by straight lines), standardises the per-variable panels to the same square
size, assigns each variable a distinct colour and stitches the panels into one
image (Section IV-C1).  matplotlib is unavailable offline, so
:mod:`repro.imaging.line_chart` implements a small rasteriser directly on
NumPy arrays — vectorized over whole batches, with the original scalar
implementation retained as a ``reference=True`` slow path.

Because rendering is deterministic, :mod:`repro.imaging.cache` keeps a
read-only table of renders: :meth:`RenderCache.precompute_pool` renders the
pre-training pool's leading rows once, up to a byte budget, and every epoch
reads them back.
"""

from repro.imaging.cache import RenderCache, content_hash
from repro.imaging.line_chart import (
    VARIABLE_COLORS,
    LineChartRenderer,
    fill_non_finite,
    render_series_image,
)

__all__ = [
    "LineChartRenderer",
    "RenderCache",
    "content_hash",
    "fill_non_finite",
    "render_series_image",
    "VARIABLE_COLORS",
]
