"""Static SVG emission for the few figures the harness produces.

Hand-rolled on purpose: figures must render byte-identically from
(config, seed) alone, so no plotting dependency with its own versioned
styling sits between the numbers and the file.  Only the plot shapes
the reports need are supported: polyline/marker series and paired bars.
"""

import numpy as np

WIDTH = 640
HEIGHT = 440
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
PAD = 0.06               # axis margin beyond the data, as a share of its span


def _fmt(x):
    return f"{float(x):.6g}"


def _limits(values):
    lo = float(min(values))
    hi = float(max(values))
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    span = hi - lo
    return lo - PAD * span, hi + PAD * span


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim):
        self.xlim = xlim
        self.ylim = ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>',
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-family="monospace" font-size="12">'
            f'{xlabel}</text>',
            f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" '
            f'text-anchor="middle" font-family="monospace" font-size="12" '
            f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">'
            f'{ylabel}</text>',
        ]
        self._axes()

    def px(self, v):
        x0, x1 = self.xlim
        return MARGIN_L + (v - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, v):
        y0, y1 = self.ylim
        return HEIGHT - MARGIN_B - (v - y0) / (y1 - y0) * (
            HEIGHT - MARGIN_T - MARGIN_B)

    def _axes(self):
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
            f'stroke="black" stroke-width="1"/>')
        for t in np.linspace(self.xlim[0], self.xlim[1], 5):
            p = self.px(t)
            self.parts.append(
                f'<line x1="{p:.2f}" y1="{y0}" x2="{p:.2f}" y2="{y0 + 5}" '
                f'stroke="black"/>')
            self.parts.append(
                f'<text x="{p:.2f}" y="{y0 + 18}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{_fmt(t)}</text>')
        for t in np.linspace(self.ylim[0], self.ylim[1], 5):
            p = self.py(t)
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{p:.2f}" x2="{x0}" y2="{p:.2f}" '
                f'stroke="black"/>')
            self.parts.append(
                f'<text x="{x0 - 8}" y="{p + 3:.2f}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{_fmt(t)}</text>')

    def legend(self, labels):
        for k, (label, color) in enumerate(labels):
            y = MARGIN_T + 14 + 16 * k
            x = WIDTH - MARGIN_R - 150
            self.parts.append(
                f'<rect x="{x}" y="{y - 9}" width="12" height="9" '
                f'fill="{color}"/>')
            self.parts.append(
                f'<text x="{x + 17}" y="{y}" font-family="monospace" '
                f'font-size="11">{label}</text>')

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts) + "\n")


def line_plot(path, title, xlabel, ylabel, series):
    """series: list of (label, xs, ys, style) with style in line|marker|both."""
    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    c = _Canvas(title, xlabel, ylabel, _limits(all_x), _limits(all_y))
    shown = []
    for k, (label, xs, ys, style) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = [(c.px(float(x)), c.py(float(y))) for x, y in zip(xs, ys)]
        if style in ("line", "both"):
            d = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            c.parts.append(
                f'<polyline points="{d}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>')
        if style in ("marker", "both"):
            for x, y in pts:
                c.parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                    f'fill="{color}"/>')
        if label:
            shown.append((label, color))
    if shown:
        c.legend(shown)
    c.write(path)


def bar_pairs(path, title, ylabel, categories, first, second, pair_names):
    """Two bars per category (e.g. kappa next to the exponent gap)."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    top = float(max(first.max(), second.max(), 0.0))
    c = _Canvas(title, "", ylabel, (0.0, float(len(categories))),
                (0.0, top * 1.15 if top > 0 else 1.0))
    width = 0.32
    for k, cat in enumerate(categories):
        for j, (vals, color) in enumerate(((first, PALETTE[0]),
                                           (second, PALETTE[1]))):
            x0 = c.px(k + 0.18 + j * width)
            x1 = c.px(k + 0.18 + (j + 1) * width)
            y0 = c.py(float(vals[k]))
            y1 = c.py(0.0)
            c.parts.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                f'height="{y1 - y0:.2f}" fill="{color}"/>')
        c.parts.append(
            f'<text x="{c.px(k + 0.5):.2f}" y="{HEIGHT - MARGIN_B + 32}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">'
            f'{cat}</text>')
    c.legend(list(zip(pair_names, PALETTE)))
    c.write(path)
