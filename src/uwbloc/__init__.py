"""UWB TOA indoor positioning on a fingerprint grid.

The package covers the whole chain: simulated (or file-based) range
measurements, robust preprocessing, linear ranging calibration, a
predicted fingerprint database over a 2-D grid, native classifiers for
cell lookup, and an evaluation harness that scores positioning error
against a plain trilateration baseline.
"""

from .calibration import (
    ANCHOR_NAMES,
    CalibrationModel,
    DegeneratePairError,
    InsufficientDataError,
    LinearRangingEq,
    MissingReferencePointError,
    ModelKind,
    NonPositiveSlopeError,
    ObservationData,
    REFERENCE_POINTS,
    clean_observation_rows,
    fit_model,
    read_calibration,
    write_calibration,
)
from .errors import FileFormatError
from .evaluation import (
    ErrorReport,
    MismatchedTestPointsError,
    PipelineConfig,
    PointErrors,
    TEST_POINTS,
    compare,
    fit_calibration,
    load_reference_report,
    list_reference_reports,
    observation_campaign,
    read_report,
    run_baseline,
    run_ml,
    write_report,
)
from .fingerprint import (
    DEFAULT_GRID,
    FingerprintDB,
    GridSpec,
    LabelOutOfRangeError,
    OutOfAreaError,
    build_db,
    cell_vertex,
    read_db,
    write_db,
)
from .config import ConfigError, RunConfig, load_config
from .geometry import (
    AnchorLayout,
    CollinearAnchorsError,
    DEFAULT_ANCHORS,
    NonFiniteRangeError,
    PointMM,
    RangeTriple,
    distance,
    trilaterate,
)
from .learners import (
    ForestClassifier,
    KnnClassifier,
    SoftVoteClassifier,
    TrainingSet,
    TreeClassifier,
    VoteWeights,
)
from .preprocess import CorrectionPolicy, correct_triple, mad_keep_mask
from .simulator import (
    Campaign,
    NoiseConfig,
    derive_seed,
    measurement_stream,
    read_measurements,
    simulate_campaign,
    simulate_range,
    write_measurements,
)

__version__ = "0.1.0"
