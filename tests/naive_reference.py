"""Hand-rolled reference implementations used as test oracles.

Everything here is deliberately naive: scalar loops, literal formulas and
dense linear algebra, written independently of the package's vectorized
and structured code. Tests compare the library against these, never the
other way around.
"""

import math
from functools import lru_cache

import numpy as np

WAVE_ORDER = ("P", "Q", "R", "S", "T")

# canonical resting-beat defaults, duplicated on purpose
THETA = (-math.pi / 3.0, -math.pi / 12.0, 0.0, math.pi / 12.0, math.pi / 2.0)
AMP = (1.2, -5.0, 30.0, -7.5, 0.75)
WIDTH = (0.25, 0.1, 0.1, 0.1, 0.4)


def wrap(phi):
    while phi >= math.pi:
        phi -= 2.0 * math.pi
    while phi < -math.pi:
        phi += 2.0 * math.pi
    return phi


def baseline(t, amp, f2):
    return amp * math.sin(2.0 * math.pi * f2 * t)


def wave_sum(phase, theta=THETA, a=AMP, b=WIDTH):
    acc = 0.0
    for i in range(5):
        d = wrap(phase - theta[i])
        acc += a[i] * d * math.exp(-(d * d) / (2.0 * b[i] * b[i]))
    return -acc


def fz(x, y, z, t, theta=THETA, a=AMP, b=WIDTH, wander=0.15, f2=0.25):
    return wave_sum(math.atan2(y, x), theta, a, b) - (z - baseline(t, wander, f2))


def euler_trajectory(fs, n, f=1.0, theta=THETA, a=AMP, b=WIDTH,
                     wander=0.15, f2=0.25, x0=-1.0, y0=0.0, z0=0.0):
    """Forward-Euler solution of all three coordinates, scalar loop."""
    dt = 1.0 / fs
    omega = 2.0 * math.pi * f
    xs, ys, zs = [x0], [y0], [z0]
    x, y, z = x0, y0, z0
    for step in range(n - 1):
        t = step * dt
        alpha = 1.0 - math.sqrt(x * x + y * y)
        dx = alpha * x - omega * y
        dy = alpha * y + omega * x
        dz = fz(x, y, z, t, theta, a, b, wander, f2)
        x, y, z = x + dx * dt, y + dy * dt, z + dz * dt
        xs.append(x)
        ys.append(y)
        zs.append(z)
    return xs, ys, zs


def rk4_trajectory(fs, n, f=1.0, theta=THETA, a=AMP, b=WIDTH,
                   wander=0.15, f2=0.25, x0=-1.0, y0=0.0, z0=0.0, t0=0.0):
    """Classical RK4 on all three coordinates, one full rate per stage."""
    dt = 1.0 / fs
    omega = 2.0 * math.pi * f

    def rate(u, t):
        x, y, z = u
        alpha = 1.0 - math.sqrt(x * x + y * y)
        return (alpha * x - omega * y, alpha * y + omega * x,
                fz(x, y, z, t, theta, a, b, wander, f2))

    def shift(u, k, h):
        return tuple(ui + h * ki for ui, ki in zip(u, k))

    u = (x0, y0, z0)
    path = [u]
    for step in range(n - 1):
        t = t0 + step * dt
        k1 = rate(u, t)
        k2 = rate(shift(u, k1, dt / 2.0), t + dt / 2.0)
        k3 = rate(shift(u, k2, dt / 2.0), t + dt / 2.0)
        k4 = rate(shift(u, k3, dt), t + dt)
        u = tuple(ui + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                  for ui, a1, a2, a3, a4 in zip(u, k1, k2, k3, k4))
        path.append(u)
    xs, ys, zs = zip(*path)
    return list(xs), list(ys), list(zs)


def sim_distance(h, xs, ys, fs, theta=THETA, a=AMP, b=WIDTH,
                 wander=0.15, f2=0.25):
    """Direct summation of the squared one-step consistency residuals."""
    dt = 1.0 / fs
    total = 0.0
    for l in range(len(h) - 1):
        rate = fz(xs[l], ys[l], h[l], l * dt, theta, a, b, wander, f2)
        resid = (h[l + 1] - h[l]) / dt - rate
        total += resid * resid
    return total


def sim_distance_sources(h, xs, ys, fs, sources, wander=0.15, f2=0.25):
    """Multi-source variant; sources are (coefficient, eta) pairs, each eta
    a (theta, a, b) triple of tuples. A source lead's rate is W + z0 - z,
    and the coefficients times the source leads sum to h, so the target's
    rate is the sources' rates at z = 0, combined, minus h itself."""
    dt = 1.0 / fs
    total = 0.0
    for l in range(len(h) - 1):
        rate = sum(coef * fz(xs[l], ys[l], 0.0, l * dt, *eta, wander, f2)
                   for coef, eta in sources)
        resid = (h[l + 1] - h[l]) / dt - (rate - h[l])
        total += resid * resid
    return total


# each lead as coefficients on the free rows I, II, V1..V6 (row index:
# coefficient), duplicated on purpose from the limb identities
FREE_ROW_COEF = {
    "I": {0: 1.0}, "II": {1: 1.0}, "III": {0: -1.0, 1: 1.0},
    "aVR": {0: -0.5, 1: -0.5}, "aVL": {0: 1.0, 1: -0.5},
    "aVF": {0: -0.5, 1: 1.0},
    "V1": {2: 1.0}, "V2": {3: 1.0}, "V3": {4: 1.0},
    "V4": {5: 1.0}, "V5": {6: 1.0}, "V6": {7: 1.0},
}


def refine_lstsq(terms, u0, dt):
    """Dense minimum-norm least-squares refinement of the 8 free rows u0.

    terms are (weight, lead, gain, drift); each scores the lead's row h by
    weight * sum_l ((h[l+1]-h[l])/dt/gain + h[l]/gain - drift[l])**2. One
    dense row per term and step; np.linalg.lstsq returns the smallest change
    from u0 that minimizes the sum.
    """
    n_rows, n = u0.shape
    rows, rhs = [], []
    for weight, lead, gain, drift in terms:
        s = math.sqrt(weight) / gain
        for l in range(n - 1):
            row = np.zeros(n_rows * n)
            for j, a in FREE_ROW_COEF[lead].items():
                row[j * n + l + 1] += s * a / dt
                row[j * n + l] += s * a * (1.0 - 1.0 / dt)
            rows.append(row)
            rhs.append(math.sqrt(weight) * drift[l])
    m = np.array(rows)
    step = np.linalg.lstsq(m, np.array(rhs) - m @ u0.ravel(), rcond=None)[0]
    return u0 + step.reshape(n_rows, n)


# ---------------------------------------------------------------------------
# The loss's expectation: brute-force quadrature, one lead and one term at a
# time

LEADS = ("I", "II", "III", "aVR", "aVL", "aVF",
         "V1", "V2", "V3", "V4", "V5", "V6")
FREE = ("I", "II", "V1", "V2", "V3", "V4", "V5", "V6")
# (target, src1, beta, src2, gamma): target = beta*src1 + gamma*src2
LIMB_RELATIONS = (("I", "II", 1.0, "III", -1.0), ("II", "I", 1.0, "III", 1.0),
                  ("III", "II", 1.0, "I", -1.0), ("aVR", "I", -0.5, "II", -0.5),
                  ("aVL", "I", 0.5, "III", -0.5), ("aVF", "II", 0.5, "III", 0.5))

#: Nodes per random parameter of the quadrature
NODES = 8


def identity_sources(src1, beta, src2, gamma):
    """A limb identity's sources as (coefficient, lead) pairs over the
    integrated leads I and II: a synthesized lead III is II - I, so its
    rate is II's minus I's, from the same draw."""
    pairs = []
    for src, coef in ((src1, beta), (src2, gamma)):
        pairs += [(coef, "II"), (-coef, "I")] if src == "III" else [(coef, src)]
    return pairs


def wrap_modulo(phi):
    """[-pi, pi) by float modulo; in-range values untouched, the seam to -pi."""
    if -math.pi <= phi < math.pi:
        return phi
    w = (phi + math.pi) % (2.0 * math.pi) - math.pi
    return -math.pi if w >= math.pi else w


def sample_entry(dist, rng):
    """One lead's draw of (15 parameters, gain) from 16 normals: centers
    wrapped, widths clamped at 1e-3, the gain floored at 1e-6."""
    draw = rng.standard_normal(16)
    vals = np.asarray(dist.mean) + np.asarray(dist.std) * draw[:15]
    for i in range(15):
        if i % 3 == 0:
            vals[i] = wrap_modulo(float(vals[i]))
        elif i % 3 == 2:
            vals[i] = max(float(vals[i]), 1e-3)
    return vals, float(max(dist.gain_mean + dist.gain_std * draw[15], 1e-6))


def circle_phase(fs, n, f):
    """atan2(y, x) at the start of each step of the Euler (x, y) path."""
    dt = 1.0 / fs
    omega = 2.0 * math.pi * f
    x, y = -1.0, 0.0
    xs, ys = [x], [y]
    for _ in range(n - 1):
        alpha = 1.0 - math.sqrt(x * x + y * y)
        dx = alpha * x - omega * y
        dy = alpha * y + omega * x
        x, y = x + dx * dt, y + dy * dt
        xs.append(x)
        ys.append(y)
    return np.arctan2(np.array(ys[:-1]), np.array(xs[:-1]))


def normal_nodes(mean, std):
    """(value, weight) pairs of the NODES-point Gauss-Hermite rule for
    N(mean, std^2), from numpy's probabilists' Hermite rule."""
    from numpy.polynomial.hermite_e import hermegauss

    x, w = hermegauss(NODES)
    return [(mean + std * xi, wi / math.sqrt(2.0 * math.pi)) for xi, wi in zip(x, w)]


@lru_cache(maxsize=None)
def drift_moments(dist, rhythm, fs, n):
    """(E[d], Var(d)) of one lead's drift d = W + z0 on the rhythm's circle.

    Each wave's term -a*D*exp(-D^2/2b^2), D = wrap(phase - theta), is
    averaged over every node triple of (theta, a, b), the centre wrapped
    and the width clamped at 1e-3 at its node, and its variance taken about
    that mean; the waves are independent, so their means and variances add.
    """
    phase = circle_phase(fs, n, rhythm.f)
    t = np.arange(phase.size) * (1.0 / fs)
    mean = rhythm.A * np.sin(2.0 * math.pi * rhythm.f2 * t)
    var = np.zeros(phase.size)
    for i in range(5):
        (mt, ma, mb), (st, sa, sb) = dist.mean[3 * i: 3 * i + 3], dist.std[3 * i: 3 * i + 3]
        terms = []
        for theta, wt in normal_nodes(mt, st):
            theta = wrap_modulo(theta)
            for b, wb in normal_nodes(mb, sb):
                b = max(b, 1e-3)
                d = phase - theta
                d = np.where(d >= math.pi, d - 2.0 * math.pi,
                             np.where(d < -math.pi, d + 2.0 * math.pi, d))
                bump = d * np.exp(-(d * d) / (2.0 * b * b))
                for a, wa in normal_nodes(ma, sa):
                    terms.append((wt * wb * wa, -a * bump))
        wave_mean = sum(w * v for w, v in terms)
        mean = mean + wave_mean
        var = var + sum(w * (v - wave_mean) ** 2 for w, v in terms)
    return mean, var


def gain_moments(dist):
    """(E[1/g], Var(1/g)) over the gain's nodes, floored at 1e-6."""
    nodes = [(1.0 / max(g, 1e-6), w) for g, w in normal_nodes(dist.gain_mean, dist.gain_std)]
    inv_mean = sum(w * v for v, w in nodes)
    return inv_mean, sum(w * (v - inv_mean) ** 2 for v, w in nodes)


def term_moments(lead, dists, fs, n):
    """(E[d], Var(d)) of the drift that scores lead, on the lead's rhythm: a
    free lead's own, and a limb lead's its identity's combination of I and
    II, whose coefficients are summed per source before the independent
    sources' variances are weighted by their squares."""
    rhythm = dists[LEADS.index(lead)].rhythm
    if lead not in ("I", "II", "III", "aVR", "aVL", "aVF"):
        return drift_moments(dists[LEADS.index(lead)], rhythm, fs, n)
    rel = next(r for r in LIMB_RELATIONS if r[0] == lead)
    coefs = {}
    for coef, src in identity_sources(*rel[1:]):
        coefs[src] = coefs.get(src, 0.0) + coef
    moments = {src: drift_moments(dists[LEADS.index(src)], rhythm, fs, n) for src in coefs}
    return (sum(c * moments[src][0] for src, c in coefs.items()),
            sum(c * c * moments[src][1] for src, c in coefs.items()))


def loss_components(leads, fs, dists):
    """(l1, l2, per_lead) of the combined loss, term by term.

    dists are the 12 leads' distributions in LEADS order. A term scores
    lead h, s = diff(h)/dt + h[:-1], by E||s/g - d||^2 over the lead's gain
    g and its drift d, which are independent: at each sample that is
    s^2*Var(1/g) + Var(d) + (s*E[1/g] - E[d])^2. Every limb lead's own term
    is its identity's.
    """
    n = leads.shape[1]
    dt = 1.0 / fs
    per_lead = {}
    for j, lead in enumerate(LEADS):
        s = np.diff(leads[j]) / dt + leads[j][:-1]
        d_mean, d_var = term_moments(lead, dists, fs, n)
        inv_mean, inv_var = gain_moments(dists[j])
        per_lead[lead] = float(np.sum(s * s * inv_var + d_var + (s * inv_mean - d_mean) ** 2))
    l1 = sum(per_lead[lead] for lead in FREE) / len(FREE)
    l2 = sum(per_lead[rel[0]] for rel in LIMB_RELATIONS) / len(LIMB_RELATIONS)
    return l1, l2, per_lead


def refine_terms(dists, fs, n, delta):
    """The terms of refine_lstsq for the combined loss over the free rows.

    A term's expectation is E[1/g^2]*||s||^2 - 2*E[1/g]*E[d].s plus a
    constant, so one dense term of gain 1/sqrt(E[1/g^2]) and drift
    E[1/g]*E[d]/sqrt(E[1/g^2]) has its minimizer. Each free lead's own term
    is weighted delta / 8, each limb identity (1 - delta) / 6; terms without
    weight are left out.
    """
    w1 = delta / len(FREE)
    w2 = (1.0 - delta) / len(LIMB_RELATIONS)
    terms = []
    for weight, names in ((w1, FREE), (w2, [rel[0] for rel in LIMB_RELATIONS])):
        for lead in names if weight > 0.0 else ():
            dist = dists[LEADS.index(lead)]
            inv_mean, inv_var = gain_moments(dist)
            root = math.sqrt(inv_var + inv_mean * inv_mean)
            d_mean, _ = term_moments(lead, dists, fs, n)
            terms.append((weight, lead, 1.0 / root, inv_mean * d_mean / root))
    return terms


# ---------------------------------------------------------------------------
# CSV: the row-by-row writers and the line parser the array code replaced

CSV_HEADER = "time,I,II,III,aVR,aVL,aVF,V1,V2,V3,V4,V5,V6"
CSV_MULTI_HEADER = "beat," + CSV_HEADER


def write_beats_csv(path, beats):
    multi = len(beats) > 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write((CSV_MULTI_HEADER if multi else CSV_HEADER) + "\n")
        for k, beat in enumerate(beats):
            dt = beat.grid.dt
            for l in range(beat.grid.L):
                cells = [f"{l * dt:.9f}"]
                cells += [str(float(beat.leads[row, l])) for row in range(12)]
                if multi:
                    cells.insert(0, str(k))
                fh.write(",".join(cells) + "\n")


def write_record_csv(path, record):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        n = record.channels.shape[1]
        for l in range(n):
            cells = [f"{l / record.fs:.9f}"]
            cells += [str(float(record.channels[row, l])) for row in range(12)]
            fh.write(",".join(cells) + "\n")


def infer_fs(times, key=None):
    if times.size < 2:
        raise ValueError("need at least two samples to infer the rate")
    where = "" if key is None else f"beat {key}: "
    for l in range(1, times.size):
        if not times[l] > times[l - 1]:
            raise ValueError(f"{where}time must increase strictly: sample {l} "
                             f"at {float(times[l])} after {float(times[l - 1])}")
    # every step within half the median step of it
    steps = [float(times[l]) - float(times[l - 1]) for l in range(1, times.size)]
    ordered = sorted(steps)
    median = 0.5 * (ordered[(len(steps) - 1) // 2] + ordered[len(steps) // 2])
    for l, step in enumerate(steps, start=1):
        if not abs(step - median) <= 0.5 * median:
            raise ValueError(f"{where}time is off the uniform grid: sample {l} "
                             f"at {float(times[l])} after {float(times[l - 1])}")
    # a span past the float range has no rate, nor one too short to invert
    fs = (times.size - 1) / (float(times[-1]) - float(times[0]))
    if not 0.0 < fs < float("inf"):
        raise ValueError(f"{where}time span from {float(times[0])} to "
                         f"{float(times[-1])} gives no finite sampling rate")
    snapped = round(fs)
    if snapped > 0 and abs(fs - snapped) <= 1e-6 * fs:
        return float(snapped)
    return fs


def parse_rows(path):
    """(beat, time, values) per data line; ValueError names the line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].strip()
    if header == CSV_HEADER:
        multi = False
    elif header == CSV_MULTI_HEADER:
        multi = True
    else:
        raise ValueError(f"{path}: unrecognized header {header!r}")
    expected = 14 if multi else 13
    parsed = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != expected:
            raise ValueError(f"{path}:{n}: expected {expected} columns")
        try:
            beat = int(cells[0]) if multi else 0
            t = float(cells[1] if multi else cells[0])
            values = [float(c) for c in (cells[2:] if multi else cells[1:])]
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
        parsed.append((beat, t, values))
    return parsed


def check_finite(values, key=None):
    """Every lead value finite, else the first bad one in file order."""
    where = "" if key is None else f"beat {key}: "
    leads = CSV_HEADER.split(",")[1:]
    for l, row in enumerate(values):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValueError(f"{where}lead {leads[j]} sample {l} "
                                 f"is not finite ({v})")


def read_beats_csv(path):
    """(fs, (12, L) leads) per beat, beats in order of first appearance."""
    order = []
    grouped = {}
    for beat, t, values in parse_rows(path):
        if beat not in grouped:
            grouped[beat] = []
            order.append(beat)
        grouped[beat].append((t, values))
    if not order:
        raise ValueError(f"{path}: no beats")
    beats = []
    for key in order:
        rows = grouped[key]
        fs = infer_fs(np.array([t for t, _ in rows]), key)
        check_finite([vals for _, vals in rows], key)
        beats.append((fs, np.array([vals for _, vals in rows]).T))
    return beats


def read_record_csv(path):
    """(fs, (12, N) channels) over every row, whatever its beat column."""
    parsed = parse_rows(path)
    fs = infer_fs(np.array([t for _, t, _ in parsed]))
    check_finite([vals for _, _, vals in parsed])
    return fs, np.array([vals for _, _, vals in parsed]).T


if __name__ == "__main__":
    # print reference values worth freezing into tests
    fs, n = 500, 500
    xs, ys, zs = euler_trajectory(fs, n)
    print("euler z: min=%.17g max=%.17g argmax=%d"
          % (min(zs), max(zs), zs.index(max(zs))))
    print("self distance = %.17g" % sim_distance(zs, xs, ys, fs))
    zeros = [0.0] * n
    print("zeros distance = %.17g" % sim_distance(zeros, xs, ys, fs))
    xs0, ys0, zs0 = euler_trajectory(fs, n, wander=0.0)
    print("zeros distance (no wander) = %.17g"
          % sim_distance(zeros, xs0, ys0, fs, wander=0.0))
