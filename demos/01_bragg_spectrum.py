"""
Bragg reflection, transmission and absorption spectra
=====================================================

A cloud of cold atoms trapped at the antinodes of a standing wave forms a
stack of reflective layers.  Scanning the probe detuning across the strongest
hyperfine line maps out the Bragg resonance; with realistic disorder a narrow
dip burns into the reflection peak, because near resonance the unordered
atoms absorb the probe before it can sample many layers.
"""

from pathlib import Path

import numpy as np

import braggstack as bs
from braggstack.svgplot import Series, render_svg
from braggstack.tableio import write_blocks, write_spectrum_csv

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# Reference geometry: 810 nm lattice, 780 nm probe at the Bragg angle,
# 500 uK deep trap holding atoms at 40% of the depth.
geom = bs.bragg_matched_geometry()
cfg = bs.default_config()
grid = bs.detuning_grid()  # -40..+15 linewidths, covers all three lines

# %%
# Two-component disorder model: an ordered lattice carrying a fraction
# f_dw of the density plus a homogeneous absorbing background.
chain = bs.two_component_lattice(3e17, 0.2, 600, 10, geom)
table = bs.spectrum(chain, grid, cfg, geom, metadata={"label": "n=3e11 cm^-3"})
write_spectrum_csv(table, out / "spectrum.csv")

write_blocks(out / "spectrum_rta.svg", [render_svg(
    [Series(grid, table.R, "R"),
     Series(grid, table.T, "T"),
     Series(grid, table.A, "A")],
    "delta / Gamma", "coefficient")])

# %%
# The dip only exists at high density.  Two orders of magnitude lower the
# penetration depth exceeds the cloud and a plain Lorentzian peak survives.
families = []
for n_cm3 in (3e9, 3e10, 1e11, 3e11):
    chain = bs.two_component_lattice(n_cm3 * 1e6, 0.2, 600, 10, geom)
    families.append(bs.spectrum(chain, grid, cfg, geom,
                                metadata={"label": f"n={n_cm3:.0e} cm^-3"}))

write_blocks(out / "spectrum_density_family.svg", [render_svg(
    [Series(t.delta_over_gamma, t.R, t.metadata["label"]) for t in families],
    "delta / Gamma", "R")])

center = np.argmin(np.abs(grid))
print("on-resonance R vs density:")
for t in families:
    print(f"  {t.metadata['label']:>16}: R(0) = {t.R[center]:.5f}, "
          f"max R = {t.R.max():.5f}")
print(f"outputs in {out}")
