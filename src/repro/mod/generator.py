"""Synthetic Moving Object Database with planted co-movement ground truth.

The demo paper evaluates on a real (non-public) MOD of aircraft
approaching London airports.  This generator is the documented
substitution (see DESIGN.md): it produces the structures that make that
dataset interesting for *time-aware sub-trajectory* clustering:

- **Routes**: smooth planar corridors (polylines with sinusoidal
  curvature), including an optional *holding-pattern* route that ends in
  a loop — the pattern Fig. 4 of the paper visualises.
- **Groups**: per route, sets of objects that traverse the corridor
  *together in time* (shared departure window and speed, small lateral
  offsets).  Each group is one planted sub-trajectory cluster; its
  global id is the ground-truth label.
- **Multi-leg objects**: a fraction of objects fly one group's leg, then
  drift (noise bridge), then join a *different* group — so whole-
  trajectory clustering (T-OPTICS) is structurally unable to recover the
  ground truth and segmentation is genuinely required.
- **Noise objects**: random walks over random sub-windows — planted
  outliers for the SaCO outlier-isolation path.
- **Time-separated twins** (Table D): two groups sharing the *same*
  spatial corridor at disjoint times — spatial-only methods (TRACLUS)
  necessarily merge them; time-aware methods must not.

All randomness flows from one ``numpy`` Generator seeded by ``seed``,
so every run (and the DuckDB oracle's view of the data) is identical.

Units: km for x/y, seconds for t.  Default speed 0.06 km/s ~ 216 km/h.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

_ROUTE_SAMPLES = 400  # dense polyline resolution per route


@dataclass
class MODConfig:
    """Knobs of the synthetic MOD. See module docstring for semantics."""

    n_routes: int = 3
    groups_per_route: int = 2
    objs_per_group: int = 6
    n_noise: int = 6
    span: float = 7200.0          # MOD time span (s)
    dt: float = 30.0              # sampling interval (s)
    extent: float = 100.0         # square world edge (km)
    speed: float = 0.06           # nominal along-track speed (km/s)
    lateral_sigma: float = 0.35   # member lateral corridor offset std (km)
    jitter_xy: float = 0.05       # per-sample GPS noise std (km)
    start_jitter: float = 45.0    # member departure jitter (s)
    two_leg_frac: float = 0.3     # fraction of group legs merged into 2-leg objects
    holding_route: bool = True    # last route ends in a holding loop
    twin_time_separated: bool = False  # Table D mode: disjoint group windows per route
    seed: int = 0


@dataclass
class _Leg:
    group: int
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.labels is None:
            self.labels = np.full(len(self.ts), self.group, dtype=np.int64)


def _route_polyline(g: np.random.Generator, extent: float, holding: bool) -> np.ndarray:
    """A smooth corridor: line A->B + sinusoidal lateral wave, optionally
    ending in a 1.5-turn holding loop. Returns (n, 2) dense polyline."""
    margin = 0.12 * extent
    while True:
        a = g.uniform(margin, extent - margin, 2)
        b = g.uniform(margin, extent - margin, 2)
        if np.linalg.norm(b - a) > 0.45 * extent:
            break
    s = np.linspace(0.0, 1.0, _ROUTE_SAMPLES)
    d = b - a
    n_hat = np.array([-d[1], d[0]]) / np.linalg.norm(d)
    amp = g.uniform(2.0, 6.0)
    k = g.integers(1, 3)
    pts = a[None, :] + s[:, None] * d[None, :] + (amp * np.sin(np.pi * k * s))[:, None] * n_hat[None, :]
    if holding:
        r = g.uniform(2.0, 3.5)
        tangent = pts[-1] - pts[-2]
        tangent /= np.linalg.norm(tangent)
        centre = pts[-1] + r * np.array([-tangent[1], tangent[0]])
        phi0 = np.arctan2(pts[-1][1] - centre[1], pts[-1][0] - centre[0])
        phi = phi0 + np.linspace(0.0, 3.0 * np.pi, _ROUTE_SAMPLES // 2)
        loop = centre[None, :] + r * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        pts = np.vstack([pts, loop[1:]])
    return pts


def _arclength_param(poly: np.ndarray):
    """Cumulative arclength of a polyline + interp helpers."""
    seg = np.diff(poly, axis=0)
    ell = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
    # unit normals per vertex (averaged segment normals), for lateral offsets
    t_hat = np.vstack([seg, seg[-1:]])
    t_hat /= np.maximum(np.linalg.norm(t_hat, axis=1, keepdims=True), 1e-12)
    n_hat = np.stack([-t_hat[:, 1], t_hat[:, 0]], axis=1)
    return ell, n_hat


def _group_windows(g, cfg: MODConfig, duration: float, n: int) -> list[float]:
    """Departure times for the ``n`` groups of one route.

    Normal mode: independent uniform starts.  Twin mode: disjoint equal
    slots across the span so groups sharing a corridor never co-exist.
    """
    latest = max(1.0, cfg.span - duration - 3 * cfg.start_jitter)
    if not cfg.twin_time_separated:
        return list(g.uniform(0.0, latest, n))
    slot = cfg.span / n
    starts = []
    for i in range(n):
        lo = i * slot
        hi = max(lo + 1.0, min((i + 1) * slot - duration - 3 * cfg.start_jitter, cfg.span))
        starts.append(g.uniform(lo, hi))
    return starts


def _sample_leg(g, cfg: MODConfig, poly, ell, n_hat, group: int, t0: float, v: float) -> _Leg:
    """One member's traversal of a route starting near ``t0`` at speed ~v."""
    t_start = t0 + g.uniform(-cfg.start_jitter, cfg.start_jitter)
    t_start = max(0.0, t_start)
    total = ell[-1]
    dur = total / v
    ts = np.arange(t_start, min(t_start + dur, cfg.span), cfg.dt)
    if len(ts) < 4:
        ts = t_start + cfg.dt * np.arange(4)
    a = np.clip(v * (ts - t_start), 0.0, total)
    xs = np.interp(a, ell, poly[:, 0])
    ys = np.interp(a, ell, poly[:, 1])
    nx = np.interp(a, ell, n_hat[:, 0])
    ny = np.interp(a, ell, n_hat[:, 1])
    off = g.normal(0.0, cfg.lateral_sigma)
    xs = xs + off * nx + g.normal(0.0, cfg.jitter_xy, len(ts))
    ys = ys + off * ny + g.normal(0.0, cfg.jitter_xy, len(ts))
    return _Leg(group, ts, xs, ys)


def _bridge(g, cfg: MODConfig, leg1: _Leg, leg2: _Leg) -> _Leg:
    """Noise drift connecting the end of ``leg1`` to the start of ``leg2``."""
    t_a, t_b = leg1.ts[-1] + cfg.dt, leg2.ts[0] - cfg.dt
    if t_b <= t_a:
        return _Leg(-1, np.empty(0), np.empty(0), np.empty(0),
                    labels=np.empty(0, dtype=np.int64))
    ts = np.arange(t_a, t_b + 1e-9, cfg.dt)
    frac = (ts - leg1.ts[-1]) / (leg2.ts[0] - leg1.ts[-1])
    xs = leg1.xs[-1] + frac * (leg2.xs[0] - leg1.xs[-1]) + g.normal(0, 0.8, len(ts))
    ys = leg1.ys[-1] + frac * (leg2.ys[0] - leg1.ys[-1]) + g.normal(0, 0.8, len(ts))
    return _Leg(-1, ts, xs, ys, labels=np.full(len(ts), -1, dtype=np.int64))


def _noise_walk(g, cfg: MODConfig) -> _Leg:
    """A random-walk outlier object over a random sub-window of the span."""
    dur = g.uniform(0.2, 0.6) * cfg.span
    t0 = g.uniform(0.0, cfg.span - dur)
    ts = np.arange(t0, t0 + dur, cfg.dt)
    n = len(ts)
    pos = np.empty((n, 2))
    pos[0] = g.uniform(0.1 * cfg.extent, 0.9 * cfg.extent, 2)
    vel = g.normal(0.0, cfg.speed * 0.7, 2)
    for i in range(1, n):
        vel = 0.9 * vel + g.normal(0.0, cfg.speed * 0.35, 2)
        pos[i] = pos[i - 1] + vel * cfg.dt
    return _Leg(-1, ts, pos[:, 0], pos[:, 1],
                labels=np.full(n, -1, dtype=np.int64))


def generate_mod(cfg: MODConfig | None = None, **overrides) -> pd.DataFrame:
    """Generate the synthetic MOD as a pandas points frame.

    Returns columns ``obj_id, traj_id, t, x, y, gt_label`` (one
    trajectory per object; ``gt_label`` is the planted group id per
    point, -1 for noise/bridge points).  Deterministic in ``cfg.seed``.
    """
    if cfg is None:
        cfg = MODConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a MODConfig or keyword overrides, not both")
    g = np.random.default_rng(cfg.seed)

    # --- routes and group legs ------------------------------------------------
    legs: list[_Leg] = []
    group_id = 0
    for r in range(cfg.n_routes):
        holding = cfg.holding_route and r == cfg.n_routes - 1
        poly = _route_polyline(g, cfg.extent, holding)
        ell, n_hat = _arclength_param(poly)
        v_route = cfg.speed * g.uniform(0.9, 1.1)
        duration = ell[-1] / v_route
        starts = _group_windows(g, cfg, duration, cfg.groups_per_route)
        for t0 in starts:
            v_group = v_route * g.uniform(0.97, 1.03)
            for _ in range(cfg.objs_per_group):
                legs.append(_sample_leg(g, cfg, poly, ell, n_hat, group_id, t0, v_group))
            group_id += 1

    # --- merge some legs into two-leg objects ---------------------------------
    # Greedily pair temporally-disjoint legs from different groups; each
    # pair becomes one object with a noise bridge between the legs.
    order = np.argsort([lg.ts[0] for lg in legs])
    n_pairs_target = int(cfg.two_leg_frac * len(legs) / 2)
    used: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for ii, i in enumerate(order):
        if len(pairs) >= n_pairs_target or i in used:
            continue
        for j in order[ii + 1:]:
            if j in used or legs[j].group == legs[i].group:
                continue
            if legs[j].ts[0] > legs[i].ts[-1] + 4 * cfg.dt:
                pairs.append((int(i), int(j)))
                used.update((int(i), int(j)))
                break

    objects: list[list[_Leg]] = []
    for i, j in pairs:
        objects.append([legs[i], _bridge(g, cfg, legs[i], legs[j]), legs[j]])
    objects.extend([lg] for k, lg in enumerate(legs) if k not in used)
    objects.extend([_noise_walk(g, cfg)] for _ in range(cfg.n_noise))

    # --- assemble points frame ------------------------------------------------
    frames = []
    for oid, obj_legs in enumerate(objects):
        ts = np.concatenate([lg.ts for lg in obj_legs])
        xs = np.concatenate([lg.xs for lg in obj_legs])
        ys = np.concatenate([lg.ys for lg in obj_legs])
        lb = np.concatenate([lg.labels for lg in obj_legs])
        o = np.argsort(ts, kind="stable")
        ts, xs, ys, lb = ts[o], xs[o], ys[o], lb[o]
        keep = np.concatenate([[True], np.diff(ts) > 1e-9])  # dedupe equal stamps
        frames.append(pd.DataFrame({
            "obj_id": np.int64(oid), "traj_id": np.int64(oid),
            "t": ts[keep], "x": xs[keep], "y": ys[keep], "gt_label": lb[keep],
        }))
    pdf = pd.concat(frames, ignore_index=True)
    return pdf.astype({"obj_id": "int64", "traj_id": "int64", "gt_label": "int64",
                       "t": "float64", "x": "float64", "y": "float64"})


def mod_config_for_sf(sf: float, **overrides) -> MODConfig:
    """Map an OLAP-style scale factor to MOD sizing (documented in DESIGN.md).

    sf=0.01 -> 16 objects / 790 points at seed 0 (unit tests);
    sf=0.1  -> 124 objects / 8,346 points at seed 0 (benchmarks).
    """
    n_noise = max(4, int(150 * sf))
    n_routes = 3 if sf <= 0.03 else 4
    groups_per_route = 1 if sf <= 0.03 else (2 if sf <= 0.07 else 4)
    target_objs = max(16.0, 1500.0 * sf)  # ~monotone object count in sf
    base = dict(
        n_routes=n_routes,
        groups_per_route=groups_per_route,
        objs_per_group=max(
            3, int(round((target_objs - n_noise) / (n_routes * groups_per_route)))
        ),
        n_noise=n_noise,
        span=7200.0 if sf <= 0.03 else 14400.0,
        dt=30.0,
    )
    base.update(overrides)
    return MODConfig(**base)
