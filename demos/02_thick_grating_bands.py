"""
From thin grating to photonic stop band
=======================================

With few layers the reflection grows quadratically with atom number (each
layer scatters once, amplitudes add).  Hundreds of layers put the stack into
the multiple-reflection regime: lineshapes grow asymmetric for a detuned
lattice constant, and deep in the opaque regime the absorption splits into
two peaks marking the stop-band edges.
"""

from pathlib import Path

import numpy as np

import braggstack as bs
from braggstack.svgplot import Series, render_svg
from braggstack.tableio import write_blocks

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

cfg = bs.single_line_config()  # isolate one line to keep shapes clean
geom = bs.bragg_matched_geometry().with_lattice_mismatch(0.8e-9)
grid = np.linspace(-6, 12, 721)

# %%
# Layer-count family at fixed density: watch the asymmetry develop.
tables = []
for n_s in (50, 200, 600, 2000):
    chain = bs.perfect_lattice(3e17, n_s, geom)
    res = bs.sweep_scatter(chain, grid * cfg.gamma, cfg, geom)
    tables.append((n_s, res))

write_blocks(out / "thick_grating_reflection.svg", [render_svg(
    [Series(grid, res.big_r, f"N_s={n_s}") for n_s, res in tables],
    "delta / Gamma", "R")])

write_blocks(out / "thick_grating_absorption.svg", [render_svg(
    [Series(grid, res.big_a, f"N_s={n_s}") for n_s, res in tables],
    "delta / Gamma", "A")])

# %%
# At N_s = 2000 the lattice is opaque: T ~ 0 over a broad window, R near
# unity, and the absorption shows two maxima with a suppressed interior.
n_s, res = tables[-1]
peaks = bs.reflection_minima(grid, -res.big_a, prominence=1e-2)
print(f"N_s={n_s}: absorption maxima at delta/Gamma = "
      f"{np.round(grid[peaks], 2).tolist()}")
print(f"  interior minimum A = {res.big_a[peaks[0]:peaks[-1]].min():.3f}")
print(f"  transmission floor T = {res.big_t.min():.2e}")
print(f"outputs in {out}")
