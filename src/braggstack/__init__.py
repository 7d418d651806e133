"""braggstack: scattering-matrix optics of 1D cold-atom lattices.

Computes Bragg reflection, transmission and absorption spectra of a stack of
atomic layers trapped in a standing wave, including thermal disorder,
position-dependent Stark shifts, intra-lattice field profiles and photonic
band-structure diagnostics.
"""

__version__ = "0.1.0"

from .geometry import (
    LatticeGeometry,
    DerivedGeometry,
    bragg_angle,
    bragg_matched_geometry,
    lattice_mismatch,
    axial_width,
    radial_width,
    debye_waller,
    effective_layers,
    penetration_depth,
    penetration_layers,
    temperature_for_depth_fraction,
)
from .response import (
    AtomResponseConfig,
    SpectralLine,
    GAMMA_RB85_D2,
    default_config,
    single_line_config,
    rb85_d2_f3_lines,
    zeta,
    cross_section,
    resonant_cross_section,
)
from .engine import (
    SlabChain,
    TransferMatrix,
    ScatterResult,
    EngineError,
    SingularMatrixError,
    layer_matrix,
    gap_matrix,
    identity_matrix,
    matmul2,
    matrix_power,
    det2,
    chain_matrix,
    unit_cell_matrix,
    scatter,
    field_profile,
    bloch_phase,
    density_of_states,
)
from .models import (
    ThermalModelConfig,
    perfect_lattice,
    sequential_lattice,
    two_component_lattice,
    local_density,
    local_depth,
    potential_above_minimum,
    sublayer_positions,
)
from .experiments import (
    SpectrumTable,
    DetectorReading,
    detuning_grid,
    spectrum,
    sweep_scatter,
    saturation_scan,
    lattice_constant_scan,
    radial_average,
    detected_powers,
    solve_boundary_value,
    band_structure,
    reflection_minima,
    atom_number_to_density,
)
