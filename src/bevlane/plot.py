"""Static SVG rendering of lane files: flat-ground, image-plane and elevation views.

SVG is written by hand so identical inputs always give identical bytes: no
library state, no timestamps, fixed float formatting.  Ground truth draws in
blue, predictions in dashed red.  Points flagged invisible in a flat-ground
lane are drawn dotted at reduced opacity so occlusions stay inspectable.
"""

from __future__ import annotations

import numpy as np

from .laneio import LaneFile

GT_COLOR = "#1f77b4"
PRED_COLOR = "#d62728"
WIDTH = 960
HEIGHT = 640
PAD = 46  # room for axis labels inside each panel


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Panel:
    """One framed data viewport with linear data-to-pixel mapping."""

    def __init__(self, x, y, w, h, title, flip_y=False):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.title = title
        self.flip_y = flip_y
        self.bounds = None  # (x0, x1, y0, y1)
        self.body: list[str] = []

    def include(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0:
            return
        lo_x, hi_x = float(xs.min()), float(xs.max())
        lo_y, hi_y = float(ys.min()), float(ys.max())
        if self.bounds is None:
            self.bounds = [lo_x, hi_x, lo_y, hi_y]
        else:
            b = self.bounds
            b[0], b[1] = min(b[0], lo_x), max(b[1], hi_x)
            b[2], b[3] = min(b[2], lo_y), max(b[3], hi_y)

    def _mapping(self):
        x0, x1, y0, y1 = self.bounds
        if x1 - x0 < 1e-9:
            x0, x1 = x0 - 1.0, x1 + 1.0
        if y1 - y0 < 1e-9:
            y0, y1 = y0 - 1.0, y1 + 1.0
        mx = x0 - 0.05 * (x1 - x0), x1 + 0.05 * (x1 - x0)
        my = y0 - 0.05 * (y1 - y0), y1 + 0.05 * (y1 - y0)
        inner_w = self.w - 2 * PAD
        inner_h = self.h - 2 * PAD

        def to_px(xs, ys):
            xs = np.asarray(xs, dtype=float)
            ys = np.asarray(ys, dtype=float)
            fx = (xs - mx[0]) / (mx[1] - mx[0])
            fy = (ys - my[0]) / (my[1] - my[0])
            if not self.flip_y:
                fy = 1.0 - fy
            return self.x + PAD + fx * inner_w, self.y + PAD + fy * inner_h

        return to_px, mx, my

    def polyline(self, xs, ys, color, dashed=False, dotted=False, opacity=1.0):
        xs = np.asarray(xs, dtype=float)
        if xs.size < 2:
            return
        self.include(xs, ys)
        self.body.append(("polyline", xs, np.asarray(ys, dtype=float), color, dashed, dotted, opacity))

    def render(self) -> str:
        parts = [
            f'<rect x="{self.x}" y="{self.y}" width="{self.w}" height="{self.h}" '
            'fill="none" stroke="#888" stroke-width="1"/>',
            f'<text x="{self.x + 8}" y="{self.y + 16}" font-size="12" '
            f'font-family="monospace" fill="#333">{self.title}</text>',
        ]
        if self.bounds is None:
            parts.append(
                f'<text x="{self.x + self.w / 2 - 24}" y="{self.y + self.h / 2}" '
                'font-size="11" font-family="monospace" fill="#999">no data</text>'
            )
            return "\n".join(parts)
        to_px, mx, my = self._mapping()
        for _, xs, ys, color, dashed, dotted, opacity in self.body:
            px, py = to_px(xs, ys)
            pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
            dash = ' stroke-dasharray="5 3"' if dashed else (' stroke-dasharray="1.5 2.5"' if dotted else "")
            op = f' stroke-opacity="{opacity:.2f}"' if opacity < 1 else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"{dash}{op}/>'
            )
        labels = [
            (self.x + PAD, self.y + self.h - 10, _fmt(mx[0]), "start"),
            (self.x + self.w - PAD, self.y + self.h - 10, _fmt(mx[1]), "end"),
            (self.x + 6, self.y + self.h - PAD, _fmt(my[0] if not self.flip_y else my[1]), "start"),
            (self.x + 6, self.y + PAD + 4, _fmt(my[1] if not self.flip_y else my[0]), "start"),
        ]
        for lx, ly, text, anchor in labels:
            parts.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="10" font-family="monospace" '
                f'fill="#555" text-anchor="{anchor}">{text}</text>'
            )
        return "\n".join(parts)


def _visible_runs(vis: np.ndarray):
    """Consecutive index runs of equal visibility, as (start, stop, visible)."""
    runs = []
    start = 0
    for i in range(1, len(vis) + 1):
        if i == len(vis) or vis[i] != vis[start]:
            runs.append((start, i, bool(vis[start])))
            start = i
    return runs


def _draw_bev(panel: _Panel, lanes_bev, color, dashed):
    for lane in lanes_bev:
        for start, stop, visible in _visible_runs(lane.visibility):
            lo = max(0, start - 1)  # bridge the gap so runs stay connected
            seg = lane.points[lo:stop]
            if visible:
                panel.polyline(seg[:, 0], seg[:, 1], color, dashed=dashed)
            else:
                panel.polyline(seg[:, 0], seg[:, 1], color, dotted=True, opacity=0.45)


def _draw_file(panels, lf: LaneFile, color: str, dashed: bool) -> None:
    bev, image, elev = panels
    _draw_bev(bev, lf.lanes_bev, color, dashed)
    for uv in lf.lanes_image:
        image.polyline(uv[:, 0], uv[:, 1], color, dashed=dashed)
    for lane in lf.lanes3d:
        elev.polyline(lane.y, lane.z, color, dashed=dashed)


def render_svg(gt: LaneFile, pred: LaneFile | None = None) -> str:
    """Three views of one (or a pair of) lane files as a standalone SVG."""
    bev = _Panel(16, 16, 440, HEIGHT - 32, "flat ground: x [m] vs y [m]")
    image = _Panel(472, 16, WIDTH - 488, 296, "image: u [px] vs v [px]", flip_y=True)
    elev = _Panel(472, 328, WIDTH - 488, HEIGHT - 344, "elevation: y [m] vs z [m]")
    if gt.intrinsics is not None:
        frame_u = np.array([0.0, gt.intrinsics.image_w, gt.intrinsics.image_w, 0.0, 0.0])
        frame_v = np.array([0.0, 0.0, gt.intrinsics.image_h, gt.intrinsics.image_h, 0.0])
        image.polyline(frame_u, frame_v, "#bbbbbb")
    _draw_file((bev, image, elev), gt, GT_COLOR, dashed=False)
    if pred is not None:
        _draw_file((bev, image, elev), pred, PRED_COLOR, dashed=True)
    legend = [
        f'<text x="24" y="{HEIGHT - 4}" font-size="11" font-family="monospace" '
        f'fill="{GT_COLOR}">solid: reference</text>'
    ]
    if pred is not None:
        legend.append(
            f'<text x="190" y="{HEIGHT - 4}" font-size="11" font-family="monospace" '
            f'fill="{PRED_COLOR}">dashed: prediction</text>'
        )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        bev.render(),
        image.render(),
        elev.render(),
        *legend,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def write_svg(path, gt: LaneFile, pred: LaneFile | None = None) -> None:
    text = render_svg(gt, pred)  # before opening: a failed render leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
