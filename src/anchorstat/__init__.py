"""Anchored hypothesis testing for latent community structure of paired
embedding datasets: corpus handling, PCA reduction, k-means partitions,
anchor mapping, the sign-flip modified-t test with baselines, divergence
diagnostics, and synthetic generators."""

from .anchor import mapped_centers, mapped_distances
from .cluster import Partition, kmeans
from .corpus import (
    DatasetManifest,
    EmbeddingMatrix,
    ExperimentGrid,
    ManifestEntry,
    PairedCollection,
    load_manifest,
    load_matrix,
    normalize_rows,
    save_manifest,
    save_matrix,
    validate_pairing,
)
from .divergence import kl_divergence, wasserstein1
from .preprocess import PcaModel, apply_pca, fit_pca, reduce_jointly
from .stattests import (
    TestReport,
    anchored_test,
    energy_statistic,
    energy_test,
    hotelling_paired,
    johnson_t,
    nploc_mean_test,
    sign_flip_pvalue,
)
from .synth import (
    MonteCarloReport,
    ScenarioConfig,
    generate_alt_triple,
    generate_battery_quad,
    generate_drift_family,
    generate_null_triple,
    generate_scenario,
    monte_carlo,
    rand_index,
)

__version__ = "0.1.0"

__all__ = [
    "mapped_centers",
    "mapped_distances",
    "Partition",
    "kmeans",
    "DatasetManifest",
    "EmbeddingMatrix",
    "ExperimentGrid",
    "ManifestEntry",
    "PairedCollection",
    "load_manifest",
    "load_matrix",
    "normalize_rows",
    "save_manifest",
    "save_matrix",
    "validate_pairing",
    "kl_divergence",
    "wasserstein1",
    "PcaModel",
    "apply_pca",
    "fit_pca",
    "reduce_jointly",
    "TestReport",
    "anchored_test",
    "energy_statistic",
    "energy_test",
    "hotelling_paired",
    "johnson_t",
    "nploc_mean_test",
    "sign_flip_pvalue",
    "MonteCarloReport",
    "ScenarioConfig",
    "generate_alt_triple",
    "generate_battery_quad",
    "generate_drift_family",
    "generate_null_triple",
    "generate_scenario",
    "monte_carlo",
    "rand_index",
    "__version__",
]
