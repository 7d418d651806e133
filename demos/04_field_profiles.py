"""
Light intensity inside the lattice
==================================

The incident and Bragg-reflected waves form a standing wave whose nodes lock
onto the atomic layers, which is how a perfectly ordered lattice avoids
absorbing on resonance.  Disordered atoms sit anywhere, so they attenuate the
beam exponentially at the Lambert-Beer rate instead.
"""

from pathlib import Path

import numpy as np

import braggstack as bs
from braggstack.svgplot import Series, render_svg
from braggstack.tableio import write_blocks, write_csv

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

cfg = bs.default_config()
geom = bs.bragg_matched_geometry()
half = geom.lambda_dip / 2

# %%
# Ordered lattice on resonance: large-contrast standing wave, minima on the
# layers (spikes in the plot mark layer positions via intensity minima).
chain = bs.perfect_lattice(3e17, 40, geom)
z, intensity = bs.field_profile(chain, 0.0, 64, cfg, geom)
write_csv(out / "profile_ordered.csv",
          {"z_over_lambda_dip": z / geom.lambda_dip, "intensity": intensity})
write_blocks(out / "profile_ordered.svg", [render_svg(
    [Series(z / geom.lambda_dip, intensity, "f_dw = 1")],
    "z / lambda_dip", "I / I_in")])

res = bs.scatter(bs.chain_matrix(chain, 0.0, cfg, geom))
print(f"ordered, on resonance: R={res.big_r:.3f} T={res.big_t:.3f} "
      f"A={res.big_a:.3f}")

# %%
# Almost fully disordered cloud: the per-period mean intensity decays with
# the penetration depth predicted from the absorption cross section.
f_dw = 0.03
chain = bs.two_component_lattice(3e17, f_dw, 150, 10, geom)
z, intensity = bs.field_profile(chain, 0.0, 32, cfg, geom)
z_pd = bs.penetration_depth(3e17, f_dw, bs.cross_section(0.0, cfg))
means = [intensity[(z >= p * half) & (z < (p + 1) * half)].mean()
         for p in range(150)]
write_blocks(out / "profile_disordered.svg", [render_svg(
    [Series(z / geom.lambda_dip, intensity, "f_dw = 0.03"),
     Series((np.arange(150) + 0.5) * half / geom.lambda_dip,
            np.exp(-(np.arange(150) + 0.5) * half / z_pd), "Beer envelope")],
    "z / lambda_dip", "I / I_in")])
print(f"disordered: penetration depth {z_pd * 1e6:.1f} um = "
      f"{2 * z_pd / geom.lambda_brg:.0f} layers")

# %%
# Off resonance the absorption collapses and the probe penetrates deeply.
z, intensity = bs.field_profile(chain, 1.0 * cfg.gamma, 32, cfg, geom)
print(f"one linewidth off resonance: exit intensity {intensity[-1]:.3f} "
      f"(vs {means[-1]:.2e} on resonance)")
print(f"outputs in {out}")
