"""Mobile-traffic forecasting toolkit: CDR binning, day-period cell
clustering, and from-scratch recurrent forecasters with a seeded grid
search and rank-test evaluation."""

from .clustering import (
    ClusterModel,
    ProfileMatrix,
    SseCurve,
    adjusted_rand_index,
    build_profiles,
    cluster_mean_series,
    elbow_scan,
    kmeans,
    knee_point,
)
from .errors import CellcastError, ValidationError
from .ingest import (
    BinnedCellSeries,
    BinningResult,
    CdrRecord,
    bin_series,
    iter_cdr_paths,
    load_bins_json,
    read_cdr_file,
    read_cdr_paths,
    save_bins_csv,
    save_bins_json,
)
from .prep import (
    MinMaxScaler,
    SupervisedWindows,
    fit_scaler,
    make_windows,
    split_train_test,
)
from .recurrent import (
    AdamOptimizer,
    GruLayerParams,
    LstmLayerParams,
    LstmState,
    RecurrentNetwork,
    Tape,
    adam_update,
    backward,
    build_network,
    forward,
    gru_step,
    hard_sigmoid,
    load_model_json,
    lstm_step,
    mse_loss,
    save_model_json,
    sigmoid,
    tanh,
)
from .stats import (
    BoxStats,
    KruskalWallisResult,
    MetricSample,
    box_stats,
    chi_square_upper_tail,
    kruskal_wallis,
    mae,
    rmse,
)
from .synth import Archetype, SynthSpec, generate, well_separated_city
from .training import (
    ClusterDataset,
    GridResult,
    GridSpec,
    TrainConfig,
    TrainRunResult,
    grid_search,
    naive_baseline,
    prepare_dataset,
    select_best,
    train_once,
)

__version__ = "0.1.0"
