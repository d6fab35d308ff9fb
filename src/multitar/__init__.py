"""multitar: multilayer networks learned from panel time series.

A lag-one tensor autoregression with a Tucker-structured coefficient is
fitted to a fractionally differenced panel; the coefficient tensor is read
as a directed weighted multilayer network, sparsified with an urn-based
statistical filter, and summarized through layer assortativity, edge
overlap, node strength and k-coreness.
"""

from .fracdiff import (
    AdfResult,
    FracDiffSpec,
    adf_test,
    find_min_alpha,
    fracdiff_apply,
    fracdiff_weights,
)
from .multinet import (
    MultilayerNetwork,
    apply_filter,
    assortativity_matrix,
    edge_overlap_matrix,
    from_coefficient,
    k_coreness,
    node_strength,
)
from .netfilter import (
    FilterResult,
    WeightedDigraph,
    hard_threshold_filter,
    polya_filter,
    polya_pvalue,
)
from .panel import PanelSeries, export_panel, ingest_csv
from .pipeline import (
    PipelineConfig,
    PipelineError,
    export_matrices,
    export_network,
    import_network,
    run_pipeline,
)
from .regression import (
    FitConfig,
    FitReport,
    SingularSystemError,
    TarModel,
    als_fit,
    build_lagged_pairs,
    closed_form_fit,
    predict,
    predicted_r2,
)
from .synthetic import generate_arfima_panel, generate_tar_panel
from .tensor_ops import TuckerFactors, unfold

__version__ = "0.1.0"
