"""Minimal static-SVG emitter for report figures (no plotting dependency).

Emits ROC overlays, per-channel ERP averages, and per-channel dB
time-frequency heatmaps as plain well-formed XML.
"""

from __future__ import annotations

from html import escape

import numpy as np

ROC_MARGIN = 50.0
ROC_SIZE = 400.0

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

# Time columns of a TF heatmap panel: the map is averaged down to this many.
TF_BINS = 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class SvgCanvas:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{stroke}" stroke-width="{width}"{d} />'
        )

    def polyline(self, points, stroke="#000000", width=1.5):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}"'
            f' stroke-width="{width}" />'
        )

    def rect(self, x, y, w, h, fill="#ffffff", stroke=None):
        s = f' stroke="{stroke}" stroke-width="0.5"' if stroke else ""
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}"'
            f' height="{_fmt(h)}" fill="{fill}"{s} />'
        )

    def text(self, x, y, s, size=12, anchor="start", color="#222222"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"'
            f' font-family="sans-serif" text-anchor="{anchor}"'
            f' fill="{color}">{escape(str(s), quote=False)}</text>'
        )

    def to_xml(self) -> str:
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}"'
            f' height="{_fmt(self.height)}"'
            f' viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
            f"{body}\n</svg>\n"
        )


def roc_to_canvas(fpr: float, tpr: float) -> tuple[float, float]:
    """Map one ROC point to SVG pixel coordinates."""
    return ROC_MARGIN + fpr * ROC_SIZE, ROC_MARGIN + (1.0 - tpr) * ROC_SIZE


def render_roc_svg(curves: dict[str, tuple[np.ndarray, float]]) -> str:
    """curves: name -> (ROC points [m, 2], AUC). Chance diagonal included."""
    c = SvgCanvas(ROC_MARGIN * 2 + ROC_SIZE + 140, ROC_MARGIN * 2 + ROC_SIZE)
    x0, y0 = roc_to_canvas(0.0, 0.0)
    x1, y1 = roc_to_canvas(1.0, 1.0)
    c.rect(min(x0, x1), min(y0, y1), ROC_SIZE, ROC_SIZE, fill="#ffffff", stroke="#333333")
    for tick in (0.0, 0.5, 1.0):
        tx, ty = roc_to_canvas(tick, 0.0)
        c.text(tx, y0 + 18, f"{tick:g}", size=10, anchor="middle")
        tx, ty = roc_to_canvas(0.0, tick)
        c.text(x0 - 6, ty + 4, f"{tick:g}", size=10, anchor="end")
    c.text((x0 + x1) / 2, y0 + 34, "false positive rate", size=11, anchor="middle")
    c.text(x0 - 34, (y0 + y1) / 2, "TPR", size=11, anchor="middle")

    cx0, cy0 = roc_to_canvas(0.0, 0.0)
    cx1, cy1 = roc_to_canvas(1.0, 1.0)
    c.line(cx0, cy0, cx1, cy1, stroke="#999999", dash="6,4")

    for i, (name, (points, auc)) in enumerate(sorted(curves.items())):
        color = _COLORS[i % len(_COLORS)]
        c.polyline([roc_to_canvas(f, t) for f, t in points], stroke=color)
        lx = ROC_MARGIN * 2 + ROC_SIZE + 10
        ly = ROC_MARGIN + 20 + 22 * i
        c.line(lx, ly - 4, lx + 22, ly - 4, stroke=color, width=2.0)
        c.text(lx + 28, ly, f"{name} (AUC {auc:.2f})", size=11)
    return c.to_xml()


def render_erp_svg(means: dict[str, dict[str, np.ndarray]]) -> str:
    """Per-channel face vs scene average ERP curves in a 2 x 4 panel grid."""
    panel_w, panel_h, pad = 220.0, 120.0, 34.0
    channels = list(means)
    cols = 4
    rows = (len(channels) + cols - 1) // cols
    c = SvgCanvas(cols * (panel_w + pad) + pad, rows * (panel_h + pad) + pad + 20)

    lo = min(float(np.min(v)) for per in means.values() for v in per.values())
    hi = max(float(np.max(v)) for per in means.values() for v in per.values())
    span = (hi - lo) or 1.0

    for i, ch in enumerate(channels):
        px = pad + (i % cols) * (panel_w + pad)
        py = pad + (i // cols) * (panel_h + pad)
        c.rect(px, py, panel_w, panel_h, fill="#fcfcfc", stroke="#333333")
        c.text(px + 4, py + 14, ch, size=11)
        for j, (lab, curve) in enumerate(sorted(means[ch].items())):
            n = len(curve)
            pts = [
                (
                    px + panel_w * k / (n - 1),
                    py + panel_h * (1.0 - (curve[k] - lo) / span),
                )
                for k in range(n)
            ]
            c.polyline(pts, stroke=_COLORS[j % len(_COLORS)], width=1.2)
        c.text(px + panel_w - 4, py + panel_h + 14, "1 s", size=9, anchor="end")
    for j, lab in enumerate(sorted(next(iter(means.values())).keys())):
        c.text(pad + 90 * j, c.height - 8, lab, size=11, color=_COLORS[j % len(_COLORS)])
    return c.to_xml()


def _diverging_color(v: float, vmax: float) -> str:
    t = 0.0 if vmax == 0 else max(-1.0, min(1.0, v / vmax))
    if t >= 0:  # white -> red
        r, g, b = 255, int(255 * (1 - t)), int(255 * (1 - t))
    else:  # white -> blue
        r, g, b = int(255 * (1 + t)), int(255 * (1 + t)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def render_tf_maps_svg(maps: dict[str, dict[str, np.ndarray]], freqs: np.ndarray) -> str:
    """Per-channel dB heatmaps, one column per class; time binned for size."""
    channels = list(maps)
    labels = sorted(next(iter(maps.values())).keys())
    panel_w, panel_h, pad = 260.0, 110.0, 40.0
    c = SvgCanvas(
        len(labels) * (panel_w + pad) + pad + 60,
        len(channels) * (panel_h + pad / 2) + pad + 20,
    )
    vmax = max(
        float(np.max(np.abs(per[lab]))) for per in maps.values() for lab in labels
    )

    for row, ch in enumerate(channels):
        for col, lab in enumerate(labels):
            m = maps[ch][lab]
            n_f, n_t = m.shape
            bins = min(TF_BINS, n_t)
            edges = np.linspace(0, n_t, bins + 1).astype(int)
            binned = np.stack([m[:, a:b].mean(axis=1) for a, b in zip(edges, edges[1:])], axis=1)
            px = pad + 60 + col * (panel_w + pad)
            py = pad + row * (panel_h + pad / 2)
            cw = panel_w / bins
            chh = panel_h / n_f
            for fi in range(n_f):
                for ti in range(bins):
                    c.rect(
                        px + ti * cw,
                        py + panel_h - (fi + 1) * chh,
                        cw + 0.1,
                        chh + 0.1,
                        fill=_diverging_color(binned[fi, ti], vmax),
                    )
            c.rect(px, py, panel_w, panel_h, fill="none", stroke="#333333")
            if row == 0:
                c.text(px + panel_w / 2, py - 8, lab, size=12, anchor="middle")
        c.text(pad + 30, pad + row * (panel_h + pad / 2) + panel_h / 2, ch, size=11, anchor="middle")
    c.text(
        pad + 60,
        c.height - 6,
        f"dB vs baseline, {freqs[0]:g}-{freqs[-1]:g} Hz bottom-to-top, +-{vmax:.1f} dB",
        size=10,
    )
    return c.to_xml()
