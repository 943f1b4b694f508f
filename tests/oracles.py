"""Reference formulas and a reference sampler the package does not run, kept
next to the tests that check the package against them."""

import math
from bisect import bisect_right

import numpy as np

from ginar.numerics import invert
from ginar.simulate import _ROW_LIMIT, _table_row


def assemble_V_general(jm, jv, jvm, im, imv, iv):
    """Assemble V for estimating equations with a nonzero J_vm cross block.

    Implements the full block formulas

        v11 = jm^{-1} im jm^{-1}
        v12 = jm^{-1} (imv - im jm^{-1} jvm') jv^{-1}
        v21 = v12'
        v22 = jv^{-1} (iv + jvm jm^{-1} im jm^{-1} jvm'
                       - imv' jm^{-1} jvm' - jvm jm^{-1} imv) jv^{-1}

    which reduce to the blocks of ``assemble_V_cls`` when jvm = 0 and jv = jm.
    """
    jm_inv = invert(np.asarray(jm, dtype=np.float64))
    jv_inv = invert(np.asarray(jv, dtype=np.float64))
    jvm = np.asarray(jvm, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    imv = np.asarray(imv, dtype=np.float64)
    iv = np.asarray(iv, dtype=np.float64)
    v11 = jm_inv @ im @ jm_inv
    v12 = jm_inv @ (imv - im @ jm_inv @ jvm.T) @ jv_inv
    core = iv + jvm @ jm_inv @ im @ jm_inv @ jvm.T - imv.T @ jm_inv @ jvm.T - jvm @ jm_inv @ imv
    v22 = jv_inv @ core @ jv_inv
    return np.block([[v11, v12], [v12.T, v22]])


def reference_path(model, n, burn_in, rng):
    """``sample_path`` without guides: every table draw is ``bisect_right`` on
    the ``_table_row`` CDF of its count.

    The stream layout, the row budget of one entry per step, charged at each
    lag's first sight of a count, and the ``sample_sum`` fallbacks in (step,
    lag) order are ``sample_path``'s, so the two must agree bit for bit.
    """
    p = model.order
    steps = burn_in + n
    path = model.innovation.sample_array(p, rng).tolist()
    eps = model.innovation.sample_array(steps, rng).tolist()
    uniforms = rng.random(steps * p).tolist()
    budget = steps
    cdfs = [{} for _ in range(p)]  # per lag: count -> its CDF, or None for sample_sum
    for t in range(steps):
        z = eps[t]
        for i, spec in enumerate(model.counting):
            count = path[-1 - i]
            if not count:
                continue
            if count not in cdfs[i]:
                size = count * spec.mean + 10.0 * math.sqrt(count * spec.variance) + 1.0
                row = _table_row(spec, count) if size <= _ROW_LIMIT and size <= budget else None
                if row is not None:
                    budget -= len(row[0])
                cdfs[i][count] = row and row[0]
            cdf = cdfs[i][count]
            z += spec.sample_sum(count, rng) if cdf is None else bisect_right(cdf, uniforms[t * p + i])
        path.append(z)
    return np.array(path[p + burn_in :], dtype=np.int64)


def reference_moments(series, p, mu_hat, theta_hat):
    """The CLS moment matrices and sandwich blocks by a plain sum over t.

    With Y_t = (Z_{t-1}, ..., Z_{t-p}, 1), residual r_t = Z_t - mu_hat'Y_t and
    fitted variance v_t = theta_hat'Y_t, the four means of w_t Y_t Y_t' for
    w_t = 1, v_t, r_t^3 and r_t^4 - v_t^2 are accumulated one t at a time;
    returns ``(jm, im, imv, iv, v11, v12, v22)`` with v = jm^{-1} m jm^{-1}.
    """
    z = [float(value) for value in series]
    sums = [np.zeros((p + 1, p + 1)) for _ in range(4)]
    for t in range(p, len(z)):
        y = np.array(z[t - p : t][::-1] + [1.0])
        r = z[t] - float(mu_hat @ y)
        v = float(theta_hat @ y)
        outer = np.outer(y, y)
        for total, weight in zip(sums, (1.0, v, r**3, r**4 - v**2)):
            total += weight * outer
    jm, im, imv, iv = (total / (len(z) - p) for total in sums)
    jm_inv = np.linalg.inv(jm)
    return (jm, im, imv, iv) + tuple(jm_inv @ m @ jm_inv for m in (im, imv, iv))
