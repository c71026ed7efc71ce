"""Colorimetric test materials for assessing video transmission paths.

Solves rectangular test spectra against HDTV reference colors, matches real
reflectance spectra to a sixteen-color target set, and generates CAM16-UCS
color atlases restricted to the display gamut, with chart and data-file
output for end-to-end path checks.
"""

__version__ = "0.1.0"

from .spectral import (
    GRID_COUNT,
    GRID_START_NM,
    GRID_STEP_NM,
    GRID_STOP_NM,
    Chromaticity,
    ObserverTables,
    SpectralDistribution,
    delta_e_xyz,
    dominant_wavelength,
    illuminant_white,
    load_illuminant,
    load_observer,
    read_spectrum_csv,
    spd_to_xyz,
    to_working_grid,
    xyz_to_chromaticity,
)
from .targets import (
    LUMA_COEFFS,
    REC709_PRIMARIES,
    TargetColor,
    rgb_to_xyz_matrix,
    target_from_weights,
)
from .optimal import (
    BAND_PASS,
    BAND_STOP,
    TABLE1_COLUMNS,
    OptimalSpectrumParams,
    SolveReport,
    rectangle_chromaticity,
    scale_to_luminance,
    solve_optimal,
    synthesize,
    table1_suite,
)
from .cam16 import (
    Cam16Appearance,
    Cam16ViewingConditions,
    cam16_forward,
    cam16_inverse,
    d65_white_tristimulus,
    ucs_colorfulness_to_m,
)
from .atlas import (
    ATLAS_CSV_HEADER,
    AtlasResult,
    AtlasSpec,
    DisplayGamut,
    atlas_csv,
    gamut_contains,
    generate_atlas,
    read_atlas_rgb,
    scatter_svg,
    write_atlas_csv,
)
from .spectradb import (
    LONG_CSV,
    MATCH_CSV_HEADER,
    WIDE_CSV,
    MatchResult,
    build_target_set,
    load_database,
    match_csv,
    match_nearest,
    saturated_weights,
)
from .chart import (
    BT709_TRANSFER,
    LINEAR_TRANSFER,
    ChartLayout,
    decode_png_rgb16,
    encode_png_rgb16,
    load_metadata,
    oetf_bt709,
    render_chart,
)
