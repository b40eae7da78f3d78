"""Voice-leading geometry and psychoacoustic height functions on chord space.

Chords are unordered finite sets of real pitches (semitones, C4 = 0).  The
package provides the within-size voice-leading metric and its split/merge
geodesic completion, rational-tuning periodicity of chords and progressions,
partial-interference roughness, psychometric smoothing, and grid fields over
normalized chord domains, all behind a deterministic CLI.
"""

from .errors import (
    InfeasibleError,
    UnresolvableChordError,
    UnresolvableIntervalError,
    UnresolvableProgressionError,
)
from .field import (
    ScalarField,
    export_csv,
    export_matrix,
    import_csv,
    local_minima,
    slice_field,
)
from .harmonicity import (
    PeriodicityConfig,
    RationalTuning,
    chord_periodicity,
    dyad_periodicity,
    min_denominator_ratio,
    periodicity_field,
    rerooted_periodicity,
)
from .metric import (
    GeodesicGroup,
    GeodesicWitness,
    NormChoice,
    chord_distance,
    chord_distance_n,
    geodesic_distance,
    geodesic_witness,
    stratum_distance,
)
from .pitch import (
    DEFAULT_F0_HZ,
    Chord,
    format_chord,
    freq_from_pitch,
    normalize,
    parse_chord,
    pitch_from_freq,
    shift,
)
from .psychometric import (
    THIRD_QUARTILE_Z,
    PsychometricCurve,
    curve_value,
    expected_pitch,
    gaussian_product_sigma,
    gaussian_smooth,
    jnd_from_quartiles,
    sigma_from_jnd,
)
from .resolve import (
    Progression,
    TransitiveConfig,
    chan_transitional_harmony,
    combined_chord,
    directional_derivative,
    relative_periodicity_to_first,
    transitive_field,
    transitive_periodicity,
)
from .roughness import (
    PURE_SINE,
    RoughnessParams,
    Spectrum,
    chord_roughness,
    harmonic_spectrum,
    pair_roughness,
    roughness_field,
)

__version__ = "0.1.0"
