"""Deterministic SVG report plots.

Hand-rolled SVG strings with fixed two-decimal coordinate formatting so the
same results dict always serializes to identical bytes.  No clocks, no ids,
no library-version drift.
"""

from __future__ import annotations

import os

from ..csvio import make_dirs, open_output

WIDTH = 640
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 150.0, 30.0, 52.0, 42.0
ROW_H = 26.0

_FG = "#1f2430"
_ACCENT = "#2a6fb0"
_BASE = "#8a8f98"
_GRID = "#d8dbe0"


def _f(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke=_FG, width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"{d}/>'
        )

    def rect(self, x, y, w, h):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" fill="{_ACCENT}"/>'
        )

    def circle(self, cx, cy, r):
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="none" '
            f'stroke="{_BASE}" stroke-width="1.00"/>'
        )

    def text(self, x, y, s, size=11, anchor="start", fill=_FG):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="monospace" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}">{_esc(s)}</text>'
        )

    def polyline(self, pts, stroke=_ACCENT):
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.50"/>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(self.width)}" '
            f'height="{_f(self.height)}" viewBox="0 0 {_f(self.width)} {_f(self.height)}">\n'
            f'<rect x="0.00" y="0.00" width="{_f(self.width)}" height="{_f(self.height)}" '
            f'fill="#ffffff"/>\n{body}\n</svg>\n'
        )


def _scale(lo: float, hi: float, px_lo: float, px_hi: float):
    span = hi - lo if hi > lo else 1.0

    def to_px(v: float) -> float:
        return px_lo + (v - lo) / span * (px_hi - px_lo)

    return to_px


def _padded(lo: float, hi: float) -> tuple[float, float]:
    """The range widened by 8% of its span (of 1 when empty) on each side."""
    pad = 0.08 * (hi - lo if hi > lo else 1.0)
    return lo - pad, hi + pad


def _y_axis(c: _Canvas, to_px, lo, hi):
    for i in range(5):
        t = lo + (hi - lo) * i / 4.0
        c.text(MARGIN_L - 8, to_px(t) + 3, f"{t:.3f}", size=9, anchor="end")


def _x_axis(c: _Canvas, to_px, lo, hi, y, label):
    c.line(to_px(lo), y, to_px(hi), y, stroke=_FG)
    for i in range(5):
        t = lo + (hi - lo) * i / 4.0
        c.line(to_px(t), y, to_px(t), y + 4, stroke=_FG)
        c.text(to_px(t), y + 16, f"{t:.3f}", size=9, anchor="middle")
    c.text((to_px(lo) + to_px(hi)) / 2.0, y + 32, label, size=10, anchor="middle")


def forest_svg(rows, title, axis_label, ref_value, alpha, note=None) -> str:
    """Point-and-interval chart, one row per estimate with its (1 - alpha)
    interval, optional overlay marker."""
    height = MARGIN_T + ROW_H * len(rows) + MARGIN_B + (14 if note else 0)
    c = _Canvas(WIDTH, height)
    c.text(WIDTH / 2.0, 20, title, size=13, anchor="middle")
    vals = [ref_value]
    for r in rows:
        vals += [r["value"], r["lo"], r["hi"]]
        if r.get("overlay") is not None:
            vals.append(r["overlay"])
    lo, hi = _padded(min(vals), max(vals))
    to_px = _scale(lo, hi, MARGIN_L, WIDTH - MARGIN_R)
    axis_y = MARGIN_T + ROW_H * len(rows) + 6
    c.line(to_px(ref_value), MARGIN_T - 6, to_px(ref_value), axis_y, stroke=_GRID, dash="4,3")
    for i, r in enumerate(rows):
        y = MARGIN_T + ROW_H * (i + 0.5)
        c.text(MARGIN_L - 8, y + 4, r["label"], anchor="end")
        c.line(to_px(r["lo"]), y, to_px(r["hi"]), y, stroke=_ACCENT, width=1.5)
        c.rect(to_px(r["value"]) - 3.5, y - 3.5, 7, 7)
        if r.get("overlay") is not None:
            c.circle(to_px(r["overlay"]), y, 4.0)
    _x_axis(c, to_px, lo, hi, axis_y, axis_label)
    legend_y = axis_y + 36
    c.rect(MARGIN_L, legend_y - 8, 7, 7)
    c.text(MARGIN_L + 12, legend_y, f"matched estimate with {100 * (1 - alpha):g}% CI", size=9)
    c.circle(MARGIN_L + 220, legend_y - 4.5, 4.0)
    c.text(MARGIN_L + 230, legend_y, "randomized-partner baseline", size=9)
    if note:
        c.text(MARGIN_L, legend_y + 14, note, size=9, fill=_BASE)
    return c.render()


def dose_svg(dose: dict) -> str:
    """Per-delay-bin estimates with whiskers and the fitted trend line."""
    bins = [b for b in dose["bins"] if b.get("rd") is not None]
    height = 360.0
    c = _Canvas(WIDTH, height)
    c.text(WIDTH / 2.0, 20, f"effect by partner-to-focal delay: {dose['item']}", size=13,
           anchor="middle")
    xs = [b["midpoint_s"] for b in bins]
    ys, y_lo, y_hi = [], [], []
    for b in bins:
        ys.append(b["rd"])
        ci = b.get("rd_ci") or (b["rd"], b["rd"])
        y_lo.append(ci[0])
        y_hi.append(ci[1])
    slope, icept = dose["slope_rd"], dose["intercept_rd"]
    x_min, x_max = 0.0, max(xs) + 15.0
    fit = [icept, icept + slope * x_max]
    lo, hi = _padded(min(y_lo + fit + [0.0]), max(y_hi + fit))
    to_x = _scale(x_min, x_max, MARGIN_L, WIDTH - MARGIN_R)
    to_y = _scale(lo, hi, height - MARGIN_B - 30, MARGIN_T)
    c.line(to_x(x_min), to_y(0.0), to_x(x_max), to_y(0.0), stroke=_GRID, dash="4,3")
    c.polyline([(to_x(x_min), to_y(fit[0])), (to_x(x_max), to_y(fit[1]))], stroke=_BASE)
    for x, y, l, h in zip(xs, ys, y_lo, y_hi):
        c.line(to_x(x), to_y(l), to_x(x), to_y(h), stroke=_ACCENT)
        c.rect(to_x(x) - 3.0, to_y(y) - 3.0, 6, 6)
    _x_axis(c, to_x, x_min, x_max, height - MARGIN_B - 30, "delay midpoint (s)")
    _y_axis(c, to_y, lo, hi)
    c.text(MARGIN_L, height - 8,
           f"slope {slope:.6f} per s, p {dose['p_rd']:.4g}", size=10)
    return c.render()


def sensitivity_svg(sens: dict) -> str:
    """Amplification boundary: (lambda, delta) pairs equivalent to gamma_star."""
    pts = sens["curve"]
    height = 360.0
    c = _Canvas(WIDTH, height)
    c.text(WIDTH / 2.0, 20, f"hidden-bias boundary: {sens['item']}", size=13, anchor="middle")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    to_x = _scale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    to_y = _scale(y_lo, y_hi, height - MARGIN_B - 30, MARGIN_T)
    gamma = sens["gamma_star"]
    if y_lo < gamma < y_hi:
        c.line(to_x(x_lo), to_y(gamma), to_x(x_hi), to_y(gamma), stroke=_GRID, dash="4,3")
    c.polyline([(to_x(x), to_y(y)) for x, y in pts])
    for x, y in pts:
        c.rect(to_x(x) - 2.5, to_y(y) - 2.5, 5, 5)
    _x_axis(c, to_x, x_lo, x_hi, height - MARGIN_B - 30,
            "treatment-selection odds multiplier")
    _y_axis(c, to_y, y_lo, y_hi)
    cap = " (capped)" if sens.get("capped") else ""
    c.text(MARGIN_L, height - 8, f"gamma_star {gamma:.3f}{cap}, alpha {sens['alpha']:g}",
           size=10)
    return c.render()


def _forest_rows(results: dict, want_rr: bool):
    rows, omitted = [], []
    for it in results["items"]:
        if it["status"] != "ok":
            continue
        est = it["estimate"]
        key, ci_key = ("rr", "rr_ci") if want_rr else ("rd", "rd_ci")
        if est.get(key) is None or est.get(ci_key) is None:
            omitted.append(it["item"])
            continue
        overlay = None
        base = it.get("baseline")
        if isinstance(base, dict) and base.get(key) is not None:
            overlay = base[key]
        rows.append({
            "label": it["item"],
            "value": est[key],
            "lo": est[ci_key][0],
            "hi": est[ci_key][1],
            "overlay": overlay,
        })
    return rows, omitted


def emit_plots(results: dict, out_dir: str) -> dict:
    """Write every plot the results support; report written/skipped per name."""
    make_dirs(out_dir)
    report = {}

    def put(name: str, svg: str):
        path = os.path.join(out_dir, name)
        with open_output(path, "plot", "w") as fh:
            fh.write(svg)
        report[name] = "written"

    rd_rows, _ = _forest_rows(results, want_rr=False)
    if rd_rows:
        put("forest_rd.svg", forest_svg(
            rd_rows, "matched risk difference by item", "risk difference", 0.0,
            results["alpha"]))
    else:
        report["forest_rd.svg"] = "skipped: no estimable items"
    rr_rows, omitted = _forest_rows(results, want_rr=True)
    if rr_rows:
        note = None
        if omitted:
            note = "undefined relative risk omitted: " + ", ".join(sorted(omitted))
        put("forest_rr.svg", forest_svg(
            rr_rows, "matched relative risk by item", "relative risk", 1.0,
            results["alpha"], note=note))
    else:
        report["forest_rr.svg"] = "skipped: no items with defined relative risk"
    for it in results["items"]:
        item = it["item"]
        dose = it.get("dose_response")
        if isinstance(dose, dict) and "bins" in dose:
            if any(b.get("rd") is not None for b in dose["bins"]):
                put(f"dose_{item}.svg", dose_svg(dose))
            else:
                report[f"dose_{item}.svg"] = "skipped: no occupied delay bins"
        sens = it.get("sensitivity")
        if isinstance(sens, dict) and sens.get("curve"):
            put(f"sensitivity_{item}.svg", sensitivity_svg(sens))
    return report
