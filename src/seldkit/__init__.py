"""Feature extraction, augmentation and scoring tools for joint sound event
detection and localization."""

from .augment import (
    AugmentConfig,
    SpatialTransform,
    augment_pipeline,
    channel_swap,
    frequency_shift,
    random_cutout,
    transforms_for,
)
from .baseline import (
    FEATURE_KINDS,
    assemble,
    channel_pairs,
    gcc_phat,
    intensity_vector,
    mel_intensity_vector,
    salsa,
)
from .config import PipelineConfig
from .imaging import render_heatmap, write_ppm
from .metrics import (
    MetricsConfig,
    MetricsReport,
    evaluate,
    evaluate_many,
    seld_error,
)
from .normalize import (
    STD_FLOOR,
    ChannelStats,
    StatsAccumulator,
    apply_stats,
)
from .spatial import (
    SPEED_OF_SOUND,
    ArrayFormat,
    BinSelectionConfig,
    dominance_ratio,
    eigen_summary,
    local_covariance,
    magnitude_test,
    passband_bins,
    tetra_positions,
    track_noise_floor,
)
from .stft import (
    AudioClip,
    ComplexSpectrogram,
    FeatureTensor,
    StftConfig,
    compress_high_bands,
    log_linear_spectrogram,
    log_mel_spectrogram,
    mel_filterbank,
    stft,
)
from .synth import (
    LabelRows,
    SceneDescription,
    SourceSpec,
    angles_from_unit,
    format_scene,
    parse_scene,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    unit_vector,
)
from .tensorfile import (
    manifest_path_for,
    read_manifest,
    read_tensor,
    write_manifest,
    write_tensor,
)

__version__ = "0.1.0"
