"""Output checks that share no code with fracsys.

Every check reads what a command wrote (field files, JSON reports, CSV) with
its own parser and recomputes the quantity from the benchmark's own spectral
operator (|xi|^(2s) + gamma, built with numpy.fft) or from a closed form.  A
check raises CheckFailure naming what is wrong; it never compares against a
stored copy of an earlier output.

Tolerances follow the method: the solver stops at a gradient L2 norm of
`tol`, fields round-trip through 17 significant digits, and the measured
constants are only as close to their infima as quotient descent gets (see
RATIO_RTOL).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

FIELD_HEADER = "dimension,points_per_axis,box_length"

# the seven rows `verify` must report, in order
VERIFY_ROWS = (
    "multiplier_exactness",
    "gradient_consistency",
    "hessian_positivity",
    "ratio_identity",
    "ratio_measured",
    "coercivity_sweep",
    "sign_scan",
)

# Quotient descent stops on a relative value change of 1e-8, which bounds no
# distance to the infimum.  Over 1440 subcritical sweep configs the measured
# S_vector/S_scalar sat up to 2.4e-5 off the closed form and the ground
# state's quotient up to 1.4e-5 below S_scalar (about 1e-9 on the 2-D lab);
# both are held to 1e-3.  The ground state may undercut S_scalar, never
# exceed it.
RATIO_RTOL = 1e-3
DERIVED_RTOL = 1e-12  # r, d and the margin recomputed from reported S values
REPORT_RTOL = 1e-8  # energy and ball fraction recomputed from saved fields
RESIDUAL_FACTOR = 2.0  # strong-form residual allowed, in units of tol
QUOTIENT_RTOL = 1e-3
QUOTIENT_EXCESS = 1e-8
BUBBLE_RTOL = 1e-12
BALL_LIMIT = 0.99


class CheckFailure(AssertionError):
    """An output of the program is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# parsing


def read_field(path):
    """Parse a field file: returns (dimension, points, box_length, values)."""
    text = Path(path).read_text()
    head, dims, body = text.split("\n", 2)
    _require(head == FIELD_HEADER, f"{path}: bad field header {head!r}")
    dim_s, p_s, l_s = dims.split(",")
    dim, points, box = int(dim_s), int(p_s), float(l_s)
    values = np.array(body.split(), dtype=float)
    _require(values.size == points**dim, f"{path}: {values.size} values for {points}^{dim}")
    return dim, points, box, values.reshape((points,) * dim)


def field_digest(values):
    """Digest of a field's float64 bytes, for bit-exact comparisons."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# the benchmark's own grid and spectral operator


class Box:
    """Periodic box [-L/2, L/2)^N with P points per axis."""

    def __init__(self, dimension, points, box_length):
        self.shape = (points,) * dimension
        self.cell = (box_length / points) ** dimension
        x = -0.5 * box_length + (box_length / points) * np.arange(points)
        k = np.fft.fftfreq(points, d=1.0 / points)  # integer wave numbers
        xi2_axis = (2.0 * np.pi * k / box_length) ** 2
        self.r2 = np.zeros(self.shape)
        self.xi2 = np.zeros(self.shape)
        for axis in range(dimension):
            view = [1] * dimension
            view[axis] = points
            self.r2 = self.r2 + (x**2).reshape(view)
            self.xi2 = self.xi2 + xi2_axis.reshape(view)

    @classmethod
    def of(cls, cfg):
        return cls(cfg["dimension"], cfg["grid_size"], cfg["box_length"])

    def symbol(self, s, gamma):
        """|xi|^(2s) + gamma on the full frequency lattice."""
        return self.xi2**s + float(gamma)

    def apply(self, u, sym):
        return np.fft.ifftn(sym * np.fft.fftn(u)).real

    def quad(self, u, sym):
        """integral of u * Op u, evaluated in frequency space."""
        uh = np.fft.fftn(u)
        return float(self.cell / u.size * np.sum(sym * (uh.real**2 + uh.imag**2)))

    def integral(self, u):
        return float(self.cell * np.sum(u))


# ---------------------------------------------------------------------------
# closed forms


def exponent(cfg):
    """Coupling exponent p: critical 2N/(N-2s) at gamma=0, alpha+beta at gamma=1."""
    n, s = cfg["dimension"], cfg["s"]
    return 2.0 * n / (n - 2.0 * s) if cfg["gamma"] == 0 else cfg["alpha"] + cfg["beta"]


def ratio_closed_form(alpha, beta):
    q = alpha / beta
    return q ** (beta / (alpha + beta)) + q ** (-alpha / (alpha + beta))


def derived_constants(cfg, s_scalar, s_vector):
    """Ball radius r, smallness threshold d and coercivity margin."""
    a, b, p = cfg["alpha"], cfg["beta"], exponent(cfg)
    k = a * a + b * b + a * b - p
    radius = (p / k) ** (1.0 / (p - 2.0)) * s_scalar ** (p / (2.0 * (p - 2.0)))
    margin = k * (s_vector / s_scalar) ** (p / 2.0)
    threshold = (0.5 - 1.0 / margin) * radius / 2.0
    return radius, threshold, margin


def trial_profile(box, cfg):
    """Width-1 Gaussian, mean-free at gamma=0: a competitor for both quotients."""
    w = np.exp(-0.5 * box.r2)
    return w - w.mean() if cfg["gamma"] == 0 else w


def gaussian_forcing(box, cfg, width, target):
    """Forcing the config asks for: Gaussian (mean removed at gamma=0),
    scaled so its regime dual norm equals ``target``."""
    dens = np.exp(-box.r2 / (2.0 * width**2))
    if cfg["gamma"] == 0:
        dens = dens - dens.mean()
    norm = dual_norm(box, cfg, dens)
    return dens * (target / norm)


def dual_norm(box, cfg, dens):
    q2s = box.xi2 ** cfg["s"]
    if cfg["gamma"] == 0:
        weight = np.where(q2s > 0, 1.0 / np.where(q2s > 0, q2s, 1.0), 0.0)
    else:
        weight = 1.0 / (1.0 + q2s)
    return float(np.sqrt(box.quad(dens, weight)))


# ---------------------------------------------------------------------------
# per-command checks


def check_constants_report(cfg, rep):
    """Ratio, r, d and margin recomputed from the reported S values."""
    s_s, s_v = rep["s_scalar"], rep["s_vector"]
    _require(s_s > 0 and s_v > 0, f"nonpositive constants {s_s}, {s_v}")
    closed = ratio_closed_form(cfg["alpha"], cfg["beta"])
    _require(
        _rel(s_v / s_s, closed) <= RATIO_RTOL,
        f"measured ratio {s_v / s_s!r} vs closed form {closed!r}",
    )
    _require(_rel(rep["ratio_formula"], closed) <= DERIVED_RTOL, "ratio_formula misreported")
    _require(_rel(rep["ratio_measured"], s_v / s_s) <= DERIVED_RTOL, "ratio_measured misreported")
    radius, threshold, margin = derived_constants(cfg, s_s, s_v)
    for key, mine in (("radius", radius), ("threshold", threshold), ("coercivity_lhs", margin)):
        _require(_rel(rep[key], mine) <= DERIVED_RTOL, f"{key} {rep[key]!r} vs recomputed {mine!r}")
    _require(margin > 2.0, f"coercivity margin {margin} not above 2")
    _require(threshold > 0, f"nonpositive threshold {threshold}")
    grid = (rep["grid_dimension"], rep["grid_points"], rep["grid_box_length"], rep["regime"])
    want = (cfg["dimension"], cfg["grid_size"], cfg["box_length"], cfg["gamma"])
    _require(grid == want, f"report grid/regime {grid} vs config {want}")

    box = Box.of(cfg)
    a, b, p = cfg["alpha"], cfg["beta"], exponent(cfg)
    sym = box.symbol(cfg["s"], cfg["gamma"])
    w = trial_profile(box, cfg)
    q_scalar = box.quad(w, sym) / box.integral(np.abs(w) ** p) ** (2.0 / p)
    _require(s_s <= q_scalar, f"S_scalar {s_s!r} above the trial quotient {q_scalar!r}")
    bw = np.sqrt(a / b) * w
    q_vector = (box.quad(bw, sym) + box.quad(w, sym)) / box.integral(
        np.abs(bw) ** a * np.abs(w) ** b
    ) ** (2.0 / p)
    _require(s_v <= q_vector, f"S_vector {s_v!r} above the trial quotient {q_vector!r}")
    return {"radius": radius, "threshold": threshold, "margin": margin}


def check_constants(cfg, outdir):
    payload = read_json(Path(outdir) / "constants.json")
    rep = payload["report"]
    check_constants_report(cfg, rep)
    return rep


def solve_quantities(cfg, box, u, v, f, g):
    """Energy, pair norm and strong-form residual of a pair under (f, g)."""
    a, b, p = cfg["alpha"], cfg["beta"], exponent(cfg)
    sym = box.symbol(cfg["s"], cfg["gamma"])
    up, vp = np.maximum(u, 0.0), np.maximum(v, 0.0)
    qu, qv = box.quad(u, sym), box.quad(v, sym)
    energy = (
        0.5 * (qu + qv)
        - box.integral(up**a * vp**b) / p
        - box.integral(f * u)
        - box.integral(g * v)
    )
    ru = box.apply(u, sym) - (a / p) * up ** (a - 1.0) * vp**b - f
    rv = box.apply(v, sym) - (b / p) * vp ** (b - 1.0) * up**a - g
    if cfg["gamma"] == 0:
        ru, rv = ru - ru.mean(), rv - rv.mean()
    residual = float(np.sqrt(box.integral(ru * ru + rv * rv)))
    return energy, float(np.sqrt(qu + qv)), residual


def check_solve(cfg, outdir, fields=None):
    """Certificate of one `solve`: converged interior minimizer with negative
    energy, forcing at the requested share of the recomputed d, and a small
    strong-form residual recomputed from the saved fields."""
    outdir = Path(outdir)
    payload = read_json(outdir / "solve_report.json")
    rep = payload["report"]
    _require(rep["converged"] is True, "solve did not converge")
    _require(rep["boundary_active"] is False, "ball projection active at termination")
    derived = check_constants_report(cfg, payload["constants"])
    d = derived["threshold"]
    for key in ("forcing_norm_f", "forcing_norm_g"):
        _require(rep[key] <= d, f"{key} {rep[key]!r} exceeds d {d!r}")
        _require(
            _rel(rep[key], cfg["fraction_of_d"] * d) <= 1e-9,
            f"{key} {rep[key]!r} is not {cfg['fraction_of_d']} of d {d!r}",
        )
    _require(_rel(rep["threshold"], d) <= DERIVED_RTOL, "solve threshold misreported")
    _require(_rel(rep["radius"], derived["radius"]) <= DERIVED_RTOL, "solve radius misreported")

    if fields is None:
        fields = [read_field(outdir / f"{n}.csv") for n in ("u_bar", "v_bar")]
    want = (cfg["dimension"], cfg["grid_size"], cfg["box_length"])
    for dim, points, box_length, _ in fields:
        _require((dim, points, box_length) == want, f"field grid {(dim, points, box_length)} vs {want}")
    u, v = fields[0][3], fields[1][3]
    if cfg["gamma"] == 1:
        _require(u.min() > 0 and v.min() > 0, f"nonpositive component: min u {u.min()}, min v {v.min()}")
    else:
        for name, x in (("u", u), ("v", v)):
            _require(
                abs(x.mean()) <= 1e-12 * np.abs(x).max(),
                f"{name} has mean {x.mean()!r}, expected zero at gamma=0",
            )
    box = Box.of(cfg)
    target = cfg["fraction_of_d"] * d
    f = gaussian_forcing(box, cfg, cfg["f_width"], target)
    g = gaussian_forcing(box, cfg, cfg["g_width"], target)
    energy, pair, residual = solve_quantities(cfg, box, u, v, f, g)
    ball = pair / derived["radius"]
    _require(
        residual <= RESIDUAL_FACTOR * cfg["tol"],
        f"strong-form residual {residual:.3e} above {RESIDUAL_FACTOR} * tol",
    )
    _require(energy < 0, f"energy {energy!r} is not negative")
    _require(_rel(energy, rep["energy"]) <= REPORT_RTOL, f"energy {energy!r} vs report {rep['energy']!r}")
    _require(ball < BALL_LIMIT, f"ball fraction {ball} not below {BALL_LIMIT}")
    _require(
        _rel(ball, rep["ball_fraction"]) <= REPORT_RTOL,
        f"ball fraction {ball!r} vs report {rep['ball_fraction']!r}",
    )
    return {"energy": energy, "ball_fraction": ball, "residual": residual}


def check_ground_state(cfg, outdir, s_scalar):
    """(|xi|^(2s)+1) w = w_+^(p-1) with w > 0, and the quotient of w is
    S_scalar: no larger, and smaller by at most QUOTIENT_RTOL."""
    dim, points, box_length, w = read_field(Path(outdir) / "ground_state.csv")
    _require((dim, points, box_length) == (cfg["dimension"], cfg["grid_size"], cfg["box_length"]), "ground-state grid")
    _require(w.min() > 0, f"ground state not positive: min {w.min()!r}")
    box = Box.of(cfg)
    p = exponent(cfg)
    sym = box.symbol(cfg["s"], 1)
    res = box.apply(w, sym) - np.maximum(w, 0.0) ** (p - 1.0)
    residual = float(np.sqrt(box.integral(res * res)))
    tol = min(cfg["tol"], 1e-6)
    _require(residual <= RESIDUAL_FACTOR * tol, f"ground-state residual {residual:.3e}")
    quotient = box.quad(w, sym) / box.integral(w**p) ** (2.0 / p)
    gap = (quotient - s_scalar) / s_scalar
    _require(
        -QUOTIENT_RTOL <= gap <= QUOTIENT_EXCESS,
        f"ground-state quotient {quotient!r} vs S_scalar {s_scalar!r}",
    )
    return {"residual": residual, "quotient": quotient}


def check_bubble(cfg, outdir):
    """Saved bubble equals (lam/(lam^2+|x|^2))^((N-2s)/2) with lam = 1."""
    dim, points, box_length, w = read_field(Path(outdir) / "bubble.csv")
    _require((dim, points, box_length) == (cfg["dimension"], cfg["grid_size"], cfg["box_length"]), "bubble grid")
    box = Box.of(cfg)
    expected = (1.0 / (1.0 + box.r2)) ** ((cfg["dimension"] - 2.0 * cfg["s"]) / 2.0)
    err = float(np.max(np.abs(w - expected) / expected))
    _require(err <= BUBBLE_RTOL, f"bubble differs from the closed form by {err:.3e}")
    return {"max_rel_error": err}


def check_verify(outdir):
    """All seven named checks reported, each `pass`."""
    with open(Path(outdir) / "verify.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["check", "status", "detail"], "verify.csv header")
    names = tuple(r[0] for r in rows[1:])
    _require(names == VERIFY_ROWS, f"verify rows {names}")
    failed = [r[0] for r in rows[1:] if r[1] != "pass"]
    _require(not failed, f"verify checks failed: {failed}")


def check_load(parsed, digest, grid):
    """load_field agrees bit for bit with the benchmark's own parse
    (``parsed`` is what read_field returned for the same file)."""
    dim, points, box_length, values = parsed
    _require(grid == (dim, points, box_length), f"load_field grid {grid} vs {(dim, points, box_length)}")
    _require(digest == field_digest(values), "load_field values differ from the file")
