"""Offline EEG decoding of sustained visual attention.

Pipeline: synthetic or recorded 8-channel datasets -> preprocessing chain ->
640-column trial feature matrix (ERP, time-frequency, Hilbert envelope) ->
per-subject SVM / random-forest classifiers tuned with a TPE search and
verified by stratified 5-fold cross-validation with ROC/AUC reporting.
"""

from .dataset import DatasetError, load_recording, write_recording
from .dsp import (
    DspError,
    analytic_envelope,
    bandpass_gain,
    baseline_correct,
    despike_mad,
    filtfilt,
    knn_smooth,
    preprocess,
)
from .evaluate import (
    EvalError,
    EvalReport,
    FoldTransform,
    ModelSpec,
    TrainedModel,
    cross_validate,
    load_model,
    model_from_json,
    model_to_json,
    roc_auc,
    save_model,
    stratified_kfold,
    train_full_model,
)
from .features import (
    ErpEpochs,
    FeatureMatrix,
    FeatureError,
    db_normalize,
    envelope_statistics,
    erp_epochs,
    extract_features,
    hilbert_features,
    lda_fit,
    lda_project,
    load_feature_matrix,
    window_stats,
    write_feature_matrix,
)
from .forest import RfHyperParams, RfModel, rf_predict_proba, rf_train
from .recording import (
    CHANNELS,
    DEFAULT_BANDS,
    BandDefinition,
    Recording,
    RecordingError,
)
from .svm import SvmHyperParams, SvmModel, svm_decision, svm_train
from .synth import SynthConfig, synthesize
from .tune import (
    SearchSpace,
    Study,
    TuneError,
    compare_random,
    load_study,
    optimize,
    rf_space,
    run_study,
    svm_space,
    tpe_suggest,
)
from .wavelets import WaveletBank, build_wavelet_bank, cwt_power

__version__ = "0.1.0"

__all__ = [
    "DatasetError", "load_recording", "write_recording", "DspError",
    "analytic_envelope", "bandpass_gain", "baseline_correct", "despike_mad",
    "filtfilt", "knn_smooth", "preprocess", "EvalError", "EvalReport", "FoldTransform", "ModelSpec",
    "TrainedModel", "cross_validate", "load_model", "model_from_json", "model_to_json", "roc_auc",
    "save_model", "stratified_kfold", "train_full_model", "ErpEpochs", "FeatureMatrix",
    "FeatureError", "db_normalize", "envelope_statistics", "erp_epochs", "extract_features",
    "hilbert_features", "lda_fit", "lda_project", "load_feature_matrix", "window_stats",
    "write_feature_matrix", "RfHyperParams", "RfModel", "rf_predict_proba", "rf_train", "CHANNELS",
    "DEFAULT_BANDS", "BandDefinition", "Recording", "RecordingError", "SvmHyperParams", "SvmModel",
    "svm_decision", "svm_train", "SynthConfig", "synthesize", "SearchSpace", "Study", "TuneError",
    "compare_random", "load_study", "optimize", "rf_space", "run_study", "svm_space", "tpe_suggest",
    "WaveletBank", "build_wavelet_bank", "cwt_power",
]
