"""Hand-rolled reference implementations used as test oracles.

Everything here is deliberately naive: scalar loops, literal formulas and
dense linear algebra, written independently of the package's vectorized
and structured code. Tests compare the library against these, never the
other way around.
"""

import math

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


def sim_distance_pair(h, xs, ys, fs, beta, gamma, eta1, eta2,
                      wander=0.15, f2=0.25):
    """Two-source variant; eta1/eta2 are (theta, a, b) triples of tuples."""
    dt = 1.0 / fs
    total = 0.0
    for l in range(len(h) - 1):
        r1 = fz(xs[l], ys[l], h[l], l * dt, *eta1, wander, f2)
        r2 = fz(xs[l], ys[l], h[l], l * dt, *eta2, wander, f2)
        resid = (h[l + 1] - h[l]) / dt - (beta * r1 + gamma * r2)
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

    terms are (weight, lead, gain, drift, z_coeff); each scores the lead's
    row h by weight * sum_l ((h[l+1]-h[l])/dt/gain + z_coeff*h[l]/gain
    - drift[l])**2. One dense row per term and step; np.linalg.lstsq
    returns the smallest change from u0 that minimizes the sum.
    """
    n_rows, n = u0.shape
    rows, rhs = [], []
    for weight, lead, gain, drift, c in terms:
        s = math.sqrt(weight) / gain
        for l in range(n - 1):
            row = np.zeros(n_rows * n)
            for j, a in FREE_ROW_COEF[lead].items():
                row[j * n + l + 1] += s * a / dt
                row[j * n + l] += s * a * (c - 1.0 / dt)
            rows.append(row)
            rhs.append(math.sqrt(weight) * drift[l])
    m = np.array(rows)
    step = np.linalg.lstsq(m, np.array(rhs) - m @ u0.ravel(), rcond=None)[0]
    return u0 + step.reshape(n_rows, n)


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
