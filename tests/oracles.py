"""Reference formulas the package does not run, kept next to the tests that
check the package against them."""

import numpy as np

from ginar.numerics import invert


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
