"""
Thermal Stark broadening and lattice-constant asymmetry
=======================================================

Atoms at the bottom of a well see the full trap light intensity and are
blue-shifted by the whole depth; hotter atoms average over a shallower
potential and trail off to the red.  The sequential-density model slices each
period into sublayers with the local Boltzmann density and the local shift.
Without the Stark term, detuning the lattice constant to either side of the
Bragg condition gives near mirror-image spectra; with it, the families become
strongly asymmetric.
"""

from pathlib import Path

import numpy as np

import braggstack as bs
from braggstack.svgplot import render_svg, spectrum_series
from braggstack.tableio import write_blocks

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

cfg = bs.default_config()
geom = bs.bragg_matched_geometry()
grid = bs.detuning_grid(-15, 15, 601)
mismatches = np.array([-0.8, -0.4, 0.0, 0.4, 0.8]) * 1e-9

for stark in (False, True):
    def build(g):
        mc = bs.ThermalModelConfig(n=3e17, n_s=200, n_ss=20, T=g.T, U0=g.U0,
                                   stark_enabled=stark)
        return bs.sequential_lattice(mc, g)

    tables = bs.lattice_constant_scan(mismatches, build, grid, cfg, geom)
    tag = "on" if stark else "off"
    write_blocks(out / f"lattice_scan_stark_{tag}.svg",
                 [render_svg(spectrum_series(tables), "delta / Gamma", "R")])
    peaks = {t.metadata["delta_lambda_nm"]: t.R.max() for t in tables}
    print(f"stark {tag}: peak R per mismatch (nm) =",
          {k: round(v, 4) for k, v in peaks.items()})

# %%
# The frozen-lattice limit: at T = 0 every atom sits at an antinode and the
# whole spectrum just translates up by the trap depth.
mc0 = bs.ThermalModelConfig(n=1e16, n_s=100, n_ss=21, T=0.0, U0=geom.U0,
                            stark_enabled=True)
t_seq = bs.spectrum(bs.sequential_lattice(mc0, geom), grid, cfg, geom)
t_per = bs.spectrum(bs.perfect_lattice(1e16, 100, geom), grid, cfg, geom)
shift = (grid[np.argmax(t_seq.R)] - grid[np.argmax(t_per.R)])
print(f"frozen lattice peak shift: {shift:.2f} Gamma "
      f"(trap depth U0 = {geom.U0 / cfg.gamma:.2f} Gamma)")
print(f"outputs in {out}")
