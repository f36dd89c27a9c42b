"""Scene files: a small sectioned key/value format describing a whole run.

Grammar (one statement per line):

    [section]            starts a section; sections may repeat
    key = value          belongs to the current section
    # comment            ignored, as are blank lines

Sections: one [curve], optional [energy], repeatable [constraint] and
[potential], optional [flow] and [output].  Values are plain tokens: numbers,
words, or whitespace-separated number triples.  Unknown keys are rejected
with the offending line number.

Example:

    [curve]
    kind = random-trefoil
    n = 128
    seed = 3

    [energy]
    alpha = 3
    beta = 6

    [constraint]
    type = barycenter
    target = 0 0 0

    [constraint]
    type = edge-length

    [flow]
    strategy = hs
    stepping = collision

    [output]
    directory = out
    stride = 10
"""

from __future__ import annotations

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bvh import EdgeBvh, overlap_pairs
from .constraints import (Barycenter, ConstraintSet, EdgeLengths,
                          PointConstraint, SphereSurface, SurfaceConstraint,
                          TangentConstraint, TotalLength)
from .energy import EnergyParams, validate_params
from .flow import ACCEL_MODES, STRATEGIES, FlowConfig, FlowResult, StepReport
from .meshes import MeshSignedDistance, load_obj_mesh, read_obj
from .network import CurveNetwork, unit_vector
from .potentials import (ConstantField, FieldPotential,
                         LengthDifferencePotential, RotationField,
                         SurfacePotential, TotalLengthPotential)


class SceneError(ValueError):
    """Scene parsing or validation failure, with file/line context."""


CURVE_KINDS = ("circle", "perturbed-circle", "torus-knot", "random-trefoil",
               "grid-braid", "file")

# [flow] keys and their conversions; all but `strategy` set the `FlowConfig`
# field of the same name, `stepping` its `mode`
_FLOW_KEYS = {"strategy": str, "stepping": str, "accel": str, "max_iters": int,
              "stop_tolerance": float, "armijo": float, "backtrack": float,
              "bh_eps": float}

_KNOWN_KEYS = {
    "curve": {"kind", "n", "seed", "p", "q", "amplitude", "path", "strands"},
    "energy": {"alpha", "beta"},
    "constraint": {"type", "target", "growth", "vertex", "edge", "surface",
                   "radius", "center", "path"},
    "potential": {"type", "weight", "path", "exponent", "field", "axis"},
    "flow": set(_FLOW_KEYS),
    "output": {"directory", "stride"},
}


def _parse_sections(text: str, origin: str = "<scene>"):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KNOWN_KEYS:
                raise SceneError(f"{origin}:{lineno}: unknown section [{name}]")
            current = {"__name__": name, "__line__": lineno}
            sections.append(current)
            continue
        if "=" not in line:
            raise SceneError(f"{origin}:{lineno}: expected 'key = value'")
        if current is None:
            raise SceneError(f"{origin}:{lineno}: statement before any section")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _KNOWN_KEYS[current["__name__"]]:
            raise SceneError(
                f"{origin}:{lineno}: unknown key {key!r} in "
                f"[{current['__name__']}]")
        current[key] = (value, lineno)
        if not value:
            raise SceneError(f"{origin}:{lineno}: empty value for {key!r}")
    return sections


_REQUIRED = object()   # `_get` default of a key the section must give


def _get(section, key, default=_REQUIRED, convert=str, origin="<scene>"):
    if key not in section:
        if default is _REQUIRED:
            raise SceneError(
                f"{origin}:{section['__line__']}: [{section['__name__']}] "
                f"needs {key!r}")
        if isinstance(default, str) and convert is not str:
            return convert(default)
        return default
    value, lineno = section[key]
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise SceneError(f"{origin}:{lineno}: bad value for {key!r}: {exc}")


def _vector(text: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != 3:
        raise ValueError("expected three numbers")
    return np.array([float(p) for p in parts])


@dataclass
class Scene:
    """Parsed scene: raw sections plus the origin path for diagnostics."""

    sections: list
    origin: str = "<scene>"
    base_dir: Path = field(default_factory=Path)

    def _only(self, name, required=False):
        found = [s for s in self.sections if s["__name__"] == name]
        if len(found) > 1:
            raise SceneError(f"{self.origin}: multiple [{name}] sections")
        if not found:
            if required:
                raise SceneError(f"{self.origin}: missing [{name}] section")
            return None
        return found[0]

    def _all(self, name):
        return [s for s in self.sections if s["__name__"] == name]

    @contextmanager
    def _section(self, sec):
        """Re-raise a ValueError of the code it wraps, one that the section's
        values cause, as a SceneError naming the section's line."""
        try:
            yield
        except SceneError:
            raise
        except ValueError as exc:
            raise SceneError(
                f"{self.origin}:{sec['__line__']}: {exc}") from None

    def build_curve(self, seed_override=None) -> CurveNetwork:
        sec = self._only("curve", required=True)
        kind = _get(sec, "kind", origin=self.origin)
        if kind not in CURVE_KINDS:
            raise SceneError(f"{self.origin}: unknown curve kind {kind!r}")
        if kind == "file":
            rel = _get(sec, "path", default=None, origin=self.origin)
            if rel is None:
                raise SceneError(f"{self.origin}: curve kind 'file' "
                                 f"needs a path")
            path = self.base_dir / rel
            if not path.exists():
                raise SceneError(f"{self.origin}: curve file not found: {path}")
            return load_obj_curve(path)
        n = _get(sec, "n", default=64, convert=int, origin=self.origin)
        seed = _get(sec, "seed", default=0, convert=int, origin=self.origin)
        if seed_override is not None:
            seed = seed_override
        kwargs = {}
        if kind == "torus-knot":
            kwargs["p"] = _get(sec, "p", default=2, convert=int,
                               origin=self.origin)
            kwargs["q"] = _get(sec, "q", default=3, convert=int,
                               origin=self.origin)
        if kind == "perturbed-circle":
            kwargs["amplitude"] = _get(sec, "amplitude", default=0.05,
                                       convert=float, origin=self.origin)
        if kind == "grid-braid":
            kwargs["strands"] = _get(sec, "strands", default=3, convert=int,
                                     origin=self.origin)
        with self._section(sec):
            return generate_test_curve(kind, n, seed, **kwargs)

    def build_params(self) -> EnergyParams:
        sec = self._only("energy")
        if sec is None:
            return validate_params(3.0, 6.0)
        alpha = _get(sec, "alpha", default=3.0, convert=float,
                     origin=self.origin)
        beta = _get(sec, "beta", default=6.0, convert=float,
                    origin=self.origin)
        with self._section(sec):
            return validate_params(alpha, beta)

    def build_constraints(self, net: CurveNetwork) -> ConstraintSet:
        specs = []
        for sec in self._all("constraint"):
            with self._section(sec):
                specs.append(self._constraint(sec, net))
        return ConstraintSet(specs)

    def _constraint(self, sec, net: CurveNetwork):
        """The constraint of one [constraint] section.  A value error that
        `_get` does not name raises a plain ValueError, which `_section`
        names by the section's line, as in `_surface_for` and `_potential`."""
        kind = _get(sec, "type", origin=self.origin)
        growth = _get(sec, "growth", default=1.0, convert=float,
                      origin=self.origin)
        if kind == "barycenter":
            target = self._target(sec, _vector)
            return Barycenter.from_network(net) if target is None \
                else Barycenter(target)
        if kind == "total-length":
            target = self._target(sec, float)
            return TotalLength(net.total_length() if target is None
                               else target, growth=growth)
        if kind == "edge-length":
            return EdgeLengths.from_network(net, growth=growth)
        if kind == "point":
            vertex = self._index(sec, "vertex", net.n_vertices)
            target = self._target(sec, _vector)
            return PointConstraint(vertex, net.vertices[vertex]
                                   if target is None else target)
        if kind == "surface":
            vertex = self._index(sec, "vertex", net.n_vertices)
            return SurfaceConstraint(vertex, self._surface_for(sec))
        if kind == "tangent":
            edge = self._index(sec, "edge", net.n_edges)
            target = self._target(sec, _vector)
            return TangentConstraint(
                edge, net.geometry().tangents[edge] if target is None
                else unit_vector(target, "tangent target"))
        raise ValueError(f"unknown constraint type {kind!r}")

    def _target(self, sec, convert):
        """A constraint's `target` by `convert`, None where it is "auto" or
        not given; a value `convert` rejects names its line."""
        if _get(sec, "target", default="auto", origin=self.origin) == "auto":
            return None
        return _get(sec, "target", convert=convert, origin=self.origin)

    def _index(self, sec, key, count):
        """The integer `key` of a section, checked to lie in 0..count-1."""
        index = _get(sec, key, convert=int, origin=self.origin)
        if not 0 <= index < count:
            raise SceneError(f"{self.origin}:{sec[key][1]}: {key} {index} "
                             f"is out of range 0..{count - 1}")
        return index

    def _surface_for(self, sec):
        kind = _get(sec, "surface", default="sphere", origin=self.origin)
        if kind == "sphere":
            radius = _get(sec, "radius", default=1.0, convert=float,
                          origin=self.origin)
            center = _get(sec, "center", default="0 0 0", convert=_vector,
                          origin=self.origin)
            return SphereSurface(center=center, radius=radius)
        if kind == "mesh":
            rel = _get(sec, "path", default=None, origin=self.origin)
            if rel is None:
                raise ValueError("mesh surface needs a path")
            path = self.base_dir / rel
            if not path.exists():
                raise ValueError(f"mesh not found: {path}")
            return MeshSignedDistance(load_obj_mesh(path))
        raise ValueError(f"unknown surface kind {kind!r}")

    def build_potentials(self, params: EnergyParams):
        pots = []
        for sec in self._all("potential"):
            with self._section(sec):
                pots.append(self._potential(sec))
        return pots

    def _potential(self, sec):
        """The potential of one [potential] section."""
        kind = _get(sec, "type", origin=self.origin)
        weight = _get(sec, "weight", default=1.0, convert=float,
                      origin=self.origin)
        if kind == "total-length":
            return TotalLengthPotential(weight)
        if kind == "length-difference":
            return LengthDifferencePotential(weight)
        if kind == "surface":
            rel = _get(sec, "path", default=None, origin=self.origin)
            if rel is None:
                raise ValueError("surface potential needs a path")
            path = self.base_dir / rel
            if not path.exists():
                raise ValueError(f"obstacle not found: {path}")
            exponent = _get(sec, "exponent", default=None, convert=float,
                            origin=self.origin)
            return SurfacePotential(load_obj_mesh(path), weight,
                                    exponent=exponent)
        if kind == "field":
            name = _get(sec, "field", default="constant", origin=self.origin)
            if name not in ("constant", "rotation"):
                raise ValueError(f"unknown field {name!r}")
            axis = _get(sec, "axis", default="0 0 1", convert=_vector,
                        origin=self.origin)
            fld = ConstantField(axis) if name == "constant" \
                else RotationField(axis)
            return FieldPotential(fld, weight)
        raise ValueError(f"unknown potential type {kind!r}")

    def build_flow_config(self, overrides=None) -> tuple[str, FlowConfig]:
        """The strategy ("hs" unless given) and a `FlowConfig` of the [flow]
        keys the scene gives, `overrides` taking precedence; `FlowConfig`
        holds the defaults of the rest."""
        sec = self._only("flow") or {}
        given = {key: _get(sec, key, convert=conv, origin=self.origin)
                 for key, conv in _FLOW_KEYS.items() if key in sec}
        given.update(overrides or {})
        for key, known in (("stepping", ("normalized", "collision")),
                           ("strategy", STRATEGIES), ("accel", ACCEL_MODES)):
            if key in given and given[key] not in known:
                raise SceneError(
                    f"{self.origin}: unknown {key} {given[key]!r}")
        strategy = given.pop("strategy", "hs")
        if "stepping" in given:
            given["mode"] = given.pop("stepping")
        try:
            return strategy, FlowConfig(**given)
        except ValueError as exc:
            where = f":{sec['__line__']}" if sec else ""
            raise SceneError(f"{self.origin}{where}: [flow] {exc}") from None

    def output_settings(self):
        sec = self._only("output")
        if sec is None:
            return {"directory": None, "stride": 1}
        return {
            "directory": _get(sec, "directory", default=None,
                              origin=self.origin),
            "stride": _get(sec, "stride", default=1, convert=int,
                           origin=self.origin),
        }


def parse_scene(path_or_text, origin=None) -> Scene:
    """Parse a scene file (path) or literal scene text; a `Path` is always
    a file, and SceneError names one that does not exist."""
    if isinstance(path_or_text, Path) and not path_or_text.exists():
        raise SceneError(f"scene file not found: {path_or_text}")
    try:
        is_file = isinstance(path_or_text, (str, Path)) \
            and "\n" not in str(path_or_text) and Path(path_or_text).exists()
    except OSError:
        is_file = False
    if is_file:
        path = Path(path_or_text)
        text = path.read_text()
        scene = Scene(_parse_sections(text, str(path)), origin=str(path),
                      base_dir=path.parent)
    else:
        name = origin or "<scene>"
        scene = Scene(_parse_sections(str(path_or_text), name), origin=name)
    # eager validation of the cheap parts
    scene.build_params()
    return scene


def serialize_scene(scene: Scene) -> str:
    """Render a scene back to text; parse(serialize(s)) == s section-wise."""
    lines = []
    for sec in scene.sections:
        lines.append(f"[{sec['__name__']}]")
        for key, payload in sec.items():
            if key.startswith("__"):
                continue
            lines.append(f"{key} = {payload[0]}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# deterministic test curves

def generate_test_curve(kind: str, n: int, seed: int = 0,
                        **kwargs) -> CurveNetwork:
    """Seeded benchmark curves; identical arguments give identical output."""
    if kind not in CURVE_KINDS or kind == "file":
        raise ValueError(f"unknown curve kind {kind!r}")
    if n < 4:
        raise ValueError("need n >= 4")
    theta = 2 * np.pi * np.arange(n) / n
    loop_edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)

    if kind == "circle":
        verts = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
        return CurveNetwork(verts, loop_edges)

    if kind == "perturbed-circle":
        amplitude = kwargs.get("amplitude", 0.05)
        rng = np.random.default_rng(seed)
        # band-limited radial noise: rough tangents at the edge scale would
        # defeat hierarchical clustering and do not model mid-flow curves
        r = np.ones(n)
        modes = max(1, min(8, n // 8))
        for k in range(1, modes + 1):
            a, b = rng.uniform(-1, 1, 2)
            r += amplitude / np.sqrt(k) * (a * np.cos(k * theta)
                                           + b * np.sin(k * theta))
        verts = np.stack([r * np.cos(theta), r * np.sin(theta),
                          np.zeros(n)], axis=1)
        return CurveNetwork(verts, loop_edges)

    if kind == "torus-knot":
        p = kwargs.get("p", 2)
        q = kwargs.get("q", 3)
        verts = np.stack([
            (2 + np.cos(q * theta)) * np.cos(p * theta),
            (2 + np.cos(q * theta)) * np.sin(p * theta),
            np.sin(q * theta)], axis=1) / 3.0
        return CurveNetwork(verts, loop_edges)

    if kind == "random-trefoil":
        # perturb the standard trefoil by a smooth random displacement; the
        # vertices move linearly in the bump scale, so a single swept-contact
        # check certifies the deformation never crosses itself and the result
        # stays in the trefoil isotopy class
        from .flow import crossings_during_motion

        base_net = generate_test_curve("torus-knot", n, seed, p=2, q=3)
        base = base_net.vertices
        # one tree on the base curve serves every trial's broad phases
        bvh = EdgeBvh(base_net)
        rng = np.random.default_rng(seed)
        amplitude = kwargs.get("amplitude", 1.0)
        margin = 1.2 * base_net.total_length() / n
        while amplitude > 1e-3:
            bump = np.zeros((n, 3))
            for k in range(1, 7):
                coeff = rng.uniform(-1, 1, (2, 3)) * amplitude / k
                bump += coeff[0] * np.cos(k * theta)[:, None] \
                    + coeff[1] * np.sin(k * theta)[:, None]
            verts = base + bump
            net = CurveNetwork(verts, loop_edges)
            if _min_pair_gap(net, 5, cutoff=margin, bvh=bvh) > margin \
                    and crossings_during_motion(base_net, base, verts,
                                                bvh) == 0:
                return net
            amplitude *= 0.7
        return CurveNetwork(base, loop_edges)

    # grid-braid: open strands rising in z with smooth lateral wiggles
    strands = kwargs.get("strands", 3)
    per = max(n // strands, 3)
    rng = np.random.default_rng(seed)
    verts, edges = [], []
    for s in range(strands):
        x0, y0 = s % 2, s // 2
        z = np.linspace(0.0, 1.0, per)
        tt = np.pi * z
        x = x0 + 0.2 * rng.uniform(-1, 1) * np.sin(tt)
        y = y0 + 0.2 * rng.uniform(-1, 1) * np.sin(2 * tt)
        start = len(verts)
        verts.extend(np.stack([x, y, z], axis=1))
        edges.extend([[start + i, start + i + 1] for i in range(per - 1)])
    return CurveNetwork(np.array(verts), edges)


def _min_pair_gap(net: CurveNetwork, min_index_gap: int = 1,
                  cutoff: float | None = None,
                  bvh: EdgeBvh | None = None) -> float:
    """Minimum distance between non-adjacent edges (embeddedness margin).

    For single closed loops, min_index_gap > 1 skips pairs that are close
    along the curve, leaving the strand-to-strand separation that matters for
    near-contact behavior (pairs a few edges apart sit at roughly one edge
    length by smoothness alone).

    Only pairs whose edge boxes lie within `cutoff` of each other on every
    axis are measured (the broad phase `overlap_pairs` on the topology of
    `bvh`, a tree built on `net` when None).  The result is exact whenever
    the true minimum is at most cutoff, and above cutoff (inf when no pair
    is measured) otherwise, so a test `gap > cutoff` decides as on the exact
    minimum.  Without a cutoff the minimum is exact: the cutoff starts at
    the longest edge and grows fourfold until a pair lies within it or it
    spans the whole curve.
    """
    from .flow import _segment_gap

    bvh = bvh if bvh is not None else EdgeBvh(net)
    if cutoff is None:
        cutoff = float(net.geometry().lengths.max())
        extent = float(np.ptp(net.vertices, axis=0).max())
        while (gap := _min_pair_gap(net, min_index_gap, cutoff, bvh)) \
                > cutoff and cutoff <= extent:
            cutoff *= 4.0
        return gap
    E = net.n_edges
    p = net.vertices
    ends = p[net.edges]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    # the slack keeps rounding in the box test from dropping a pair whose
    # computed gap is at most cutoff
    ii, jj = overlap_pairs(net, bvh, lo, hi,
                           cutoff + 1e-12 * max(1.0, np.abs(p).max()))
    if min_index_gap > 1:
        cyc = np.minimum(np.abs(ii - jj), E - np.abs(ii - jj))
        keep = cyc >= min_index_gap
        ii, jj = ii[keep], jj[keep]
    gaps = _segment_gap(p[net.edges[ii, 0]], p[net.edges[ii, 1]],
                        p[net.edges[jj, 0]], p[net.edges[jj, 1]])
    return float(gaps.min()) if len(gaps) else np.inf


# ---------------------------------------------------------------------------
# geometry and log export

def save_obj_curve(path, net: CurveNetwork):
    with open(path, "w") as fh:
        for v in net.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for i, j in net.edges:
            fh.write(f"l {i + 1} {j + 1}\n")


def load_obj_curve(path) -> CurveNetwork:
    """Read an OBJ file's 'v' and 'l' records (`meshes.read_obj`) as a curve
    network; a malformed record raises SceneError naming file and line."""
    try:
        verts, lines = read_obj(path, "l")
    except ValueError as exc:
        raise SceneError(str(exc)) from None
    edges = [[a, b] for _, idx in lines for a, b in zip(idx, idx[1:])]
    if not verts or not edges:
        raise SceneError(f"{path}: no polyline data")
    return CurveNetwork(np.array(verts), edges)


def export_frames(result: FlowResult, net_edges, out_dir, stride: int = 1,
                  summary_extra=None):
    """Write stride-sampled OBJ frames, a CSV step log, and a JSON summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames = result.frames
    picked = list(range(0, len(frames), max(stride, 1)))
    if picked and picked[-1] != len(frames) - 1:
        picked.append(len(frames) - 1)
    for rank, idx in enumerate(picked):
        net = CurveNetwork(frames[idx], net_edges)
        save_obj_curve(out / f"frame_{rank:06d}.obj", net)

    with open(out / "log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(StepReport)])
        for r in result.reports:
            writer.writerow([repr(v) if isinstance(v, float) else int(v)
                             for v in astuple(r)])

    summary = {
        "iterations": len(result.reports),
        "stop_reason": result.stop_reason,
        "stop_detail": result.stop_detail,
        "final_energy": result.reports[-1].energy if result.reports else None,
        "total_wall_time": sum(r.wall_time for r in result.reports),
        "frames_written": len(picked),
        "exported_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    summary.update(summary_extra or {})
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return out
