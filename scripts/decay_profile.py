#!/usr/bin/env python3
"""Algebraic decay demo: certificate constants plus a plot-ready CSV profile.

Writes out/decay_profile.csv with columns (distance, max |A^-1| at that
distance, certified bound) for the 1D chain with couplings 0.1/(r^2+1).
"""

from pathlib import Path


from gibbscert.decay import algebraic_certificate, decay_profile
from gibbscert.interaction import interaction_from_model
from gibbscert.lattice import distance_matrix, periodic_grid
from gibbscert.model import GibbsModel, algebraic_coupling, gaussian_potential


def main():
    geom = periodic_grid([128])
    model = GibbsModel(geom, gaussian_potential(1.0), algebraic_coupling(0.1, 1.0, 1))
    im = interaction_from_model(model)
    cert = algebraic_certificate(im, geom, alpha=1.0)
    print(f"passed:          {cert.passed}")
    print(f"dominance delta: {cert.dominance:.6f}")
    print(f"contraction c:   {cert.contraction:.6f}")
    print(f"exponent:        {cert.exponent} (alpha_tilde = {cert.alpha_tilde})")
    print(f"prefactor C:     {cert.prefactor:.6f}")
    print(f"fitted exponent: {cert.fitted_exponent:.3f} over {cert.fit_range}")

    inv = im.inverse()
    r = distance_matrix(geom, euclidean=True)
    out = Path("out")
    out.mkdir(exist_ok=True)
    path = out / "decay_profile.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("distance,max_abs_inverse,certified_bound\n")
        for d, v in decay_profile(inv, r):
            bound = cert.prefactor / (d**cert.exponent + 1.0)
            fh.write(f"{d:.9g},{v:.17e},{bound:.17e}\n")
    print(f"profile written to {path}")


if __name__ == "__main__":
    main()
